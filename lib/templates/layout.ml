(* Pure schedule-table computation: the descriptor images that
   [Accel.generate] bakes into ROMs, computed without elaborating any
   hardware.  This is the software half of the runtime-programmable
   accelerator: [Accel.generate ~programmable] sizes every schedule table
   to a capacity envelope and loads these images at configuration time,
   and [Tl_compile] re-runs this module for a *new* einsum against an
   already-generated netlist to obtain a program.

   Every builder here mirrors its counterpart in [accel.ml] line for line
   (same memory names, same image contents, same bank-address allocation
   order — including Hashtbl iteration order, which is deterministic for
   identical insertion sequences).  The correspondence is locked by a
   sync test that compares [build] output against the ROM images recorded
   in a freshly generated circuit; touch one side only together with the
   other. *)

exception Unsupported of string

type domain = Cycle | Pass

type envelope = {
  env_cycles : int;  (** max schedule length (cycle-indexed table size) *)
  env_passes : int;  (** max pass count (pass tables hold env_passes+1) *)
  env_elems : int;   (** max elements per input data memory *)
  env_bank : int;    (** max cells per collector bank *)
}

type mem = {
  m_name : string;
  m_domain : domain;
  m_image : int array;  (** natural length: total (Cycle) / passes+1 (Pass) *)
}

type input = {
  in_tensor : string;  (** request-side tensor name (environment key) *)
  in_mem : string;     (** target-side data-memory key ([Accel.input_rams]) *)
  in_elems : int;
  in_shape : int array;
}

type t = {
  l_design : Tl_stt.Design.t;
  l_rows : int;
  l_cols : int;
  l_total : int;
  l_passes : int;
  l_events : int;
  l_structure : string;
  l_mems : mem list;
  l_inputs : input list;
  l_banks : (string * int * int) list;  (** name, declared capacity, used *)
  l_out : (int list * (string * int)) list;
      (** output element index → (bank name, bank address) *)
  l_out_shape : int array;
}

(* A compiled program: the loadable subset of a layout, stripped of the
   design so it serialises cleanly and can outlive the request that
   produced it. *)
type program = {
  p_name : string;
  p_structure : string;
  p_total : int;
  p_passes : int;
  p_events : int;
  p_images : (string * (domain * int array)) list;
  p_inputs : input list;
  p_out : (int list * (string * int)) list;
  p_out_shape : int array;
}

let domain_string = function Cycle -> "cycle" | Pass -> "pass"

(* ------------------------------------------------------------------ *)
(* The controller's schedule geometry, shared with [Accel.generate].    *)

let max_dt (design : Tl_stt.Design.t) =
  List.fold_left
    (fun acc (ti : Tl_stt.Design.tensor_info) ->
      match ti.Tl_stt.Design.dataflow with
      | Tl_stt.Dataflow.Systolic { dt; _ } -> max acc dt
      | Tl_stt.Dataflow.Reuse2d
          (Tl_stt.Dataflow.Systolic_multicast { systolic; _ }) ->
        max acc systolic.Tl_stt.Dataflow.dt
      | Tl_stt.Dataflow.Unicast | Tl_stt.Dataflow.Stationary _
      | Tl_stt.Dataflow.Multicast _
      | Tl_stt.Dataflow.Reuse2d
          (Tl_stt.Dataflow.Broadcast | Tl_stt.Dataflow.Multicast_stationary _)
      | Tl_stt.Dataflow.Reuse_full -> acc)
    1 design.Tl_stt.Design.tensors

let total_cycles ~compute_end ~rows design =
  compute_end + rows + max_dt design + 4

(* ------------------------------------------------------------------ *)
(* Build context: the pure mirror of accel.ml's [ctx].                  *)

type pctx = {
  sched : Schedule.t;
  total : int;
  rename : string -> string;  (* request tensor name → target tensor name *)
  shapes : (string * int array) list;  (* request tensor name → shape *)
  mutable mems : mem list;  (* reverse insertion order *)
  mutable inputs : input list;  (* reverse insertion order *)
  seen_inputs : (string, unit) Hashtbl.t;
  out_locs : (int list, string * int) Hashtbl.t;
  mutable banks : (string * int * int) list;  (* reverse insertion order *)
  tally_reads : (string, int array) Hashtbl.t;
  tally_sys_link : int array;
  tally_mc_link : int array;
  mutable struct_lines : string list;  (* reverse order *)
}

let structural ctx line = ctx.struct_lines <- line :: ctx.struct_lines

let add_mem ctx ~domain name image =
  ctx.mems <- { m_name = name; m_domain = domain; m_image = image } :: ctx.mems

let grid_iter rows cols f =
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      f (r, c)
    done
  done

let active_pes ctx =
  let acc = ref [] in
  grid_iter ctx.sched.Schedule.rows ctx.sched.Schedule.cols (fun p ->
      if Schedule.pe_active ctx.sched p then acc := p :: !acc);
  List.rev !acc

let events_of ctx (r, c) = ctx.sched.Schedule.by_pe.(r).(c)

let shape_of ctx tensor =
  try List.assoc tensor ctx.shapes
  with Not_found -> raise (Unsupported ("Layout: unknown tensor " ^ tensor))

(* row-major offset, mirroring Tl_ir.Dense.offset *)
let offset_in shape idx =
  if Array.length idx <> Array.length shape then
    raise (Unsupported "Layout: index rank mismatch");
  let off = ref 0 in
  Array.iteri
    (fun d i ->
      if i < 0 || i >= shape.(d) then
        raise (Unsupported "Layout: index out of bounds");
      off := (!off * shape.(d)) + i)
    idx;
  !off

(* the data memory backing one tensor: record it once, renamed *)
let data_mem ctx (access : Tl_ir.Access.t) =
  let tensor = access.Tl_ir.Access.tensor in
  if not (Hashtbl.mem ctx.seen_inputs tensor) then begin
    Hashtbl.add ctx.seen_inputs tensor ();
    let shape = shape_of ctx tensor in
    ctx.inputs <-
      { in_tensor = tensor; in_mem = ctx.rename tensor;
        in_elems = Array.fold_left ( * ) 1 shape; in_shape = shape }
      :: ctx.inputs
  end

let tensor_offset ctx access ev =
  let idx = Schedule.tensor_index ctx.sched access ev in
  offset_in (shape_of ctx access.Tl_ir.Access.tensor) idx

(* feed port image: cycle → data-memory address *)
let value_mem ctx access name pairs =
  data_mem ctx access;
  let data = Array.make ctx.total 0 in
  List.iter (fun (cycle, off) -> data.(cycle) <- off) pairs;
  add_mem ctx ~domain:Cycle (name ^ "_addr") data

let bitmap_mem ctx name cycles =
  let data = Array.make ctx.total 0 in
  List.iter (fun cycle -> data.(cycle) <- 1) cycles;
  add_mem ctx ~domain:Cycle name data

(* stationary feed image: pass → address (+ trailing zero entry) *)
let stage_mem ctx access name per_pass =
  data_mem ctx access;
  let data = Array.make (ctx.sched.Schedule.passes + 1) 0 in
  List.iter (fun (pass, off) -> data.(pass) <- off) per_pass;
  add_mem ctx ~domain:Pass (name ^ "_saddr") data

let pos_name prefix (r, c) = Printf.sprintf "%s_%d_%d" prefix r c

(* ------------------------------------------------------------------ *)
(* Observability tallies (identical accounting to accel.ml, so the
   compiled counter-increment images match the generated ones).         *)

let tally arr cycle = arr.(cycle) <- arr.(cycle) + 1

let tally_read ctx tensor cycle =
  let a =
    match Hashtbl.find_opt ctx.tally_reads tensor with
    | Some a -> a
    | None ->
      let a = Array.make ctx.total 0 in
      Hashtbl.add ctx.tally_reads tensor a;
      a
  in
  tally a cycle

let stage_load_cycles ctx =
  let sched = ctx.sched in
  0
  :: List.init
       (max 0 (sched.Schedule.passes - 1))
       (fun p ->
         sched.Schedule.preload + ((p + 1) * sched.Schedule.span) - 1)

let tally_stage_loads ctx tensor =
  List.iter (fun cycle -> tally_read ctx tensor cycle) (stage_load_cycles ctx)

let distinct_cycles pairs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (cycle, _) ->
      if Hashtbl.mem seen cycle then false
      else begin
        Hashtbl.add seen cycle ();
        true
      end)
    pairs
  |> List.map fst

(* ------------------------------------------------------------------ *)
(* Collector banks (pure): same first-touch allocation order.           *)

type pcollector = {
  pc_name : string;
  pc_capacity : int;
  pc_table : (int list, int) Hashtbl.t;
  mutable pc_next : int;
  mutable pc_writes : (int * int list) list;
}

let make_collector ctx ~name ~capacity =
  ignore ctx;
  { pc_name = name; pc_capacity = capacity; pc_table = Hashtbl.create 16;
    pc_next = 0; pc_writes = [] }

let alloc_cell ctx col idx =
  match Hashtbl.find_opt col.pc_table idx with
  | Some a -> a
  | None ->
    let a = col.pc_next in
    if a >= max 1 col.pc_capacity then
      raise (Unsupported ("collector bank overflow: " ^ col.pc_name));
    col.pc_next <- a + 1;
    Hashtbl.add col.pc_table idx a;
    Hashtbl.replace ctx.out_locs idx (col.pc_name, a);
    a

let finalize_collector ctx name col =
  let we_data = Array.make ctx.total 0 in
  let addr_data = Array.make ctx.total 0 in
  List.iter
    (fun (cycle, idx) ->
      if we_data.(cycle) <> 0 then
        raise (Unsupported ("collector write conflict: " ^ name));
      we_data.(cycle) <- 1;
      addr_data.(cycle) <- alloc_cell ctx col idx)
    col.pc_writes;
  add_mem ctx ~domain:Cycle (name ^ "_we") we_data;
  add_mem ctx ~domain:Cycle (name ^ "_addr") addr_data;
  ctx.banks <- (name, col.pc_capacity, col.pc_next) :: ctx.banks

(* ------------------------------------------------------------------ *)
(* Input-tensor images.                                                 *)

let index_table ctx access =
  let tbl : (int * int * int, int array) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (r, c) ->
      List.iter
        (fun ev ->
          Hashtbl.replace tbl (r, c, ev.Schedule.cycle)
            (Schedule.tensor_index ctx.sched access ev))
        (events_of ctx (r, c)))
    (active_pes ctx);
  tbl

let has_peer tbl ((r, c) : Geometry.pos) cycle idx =
  match Hashtbl.find_opt tbl (r, c, cycle) with
  | Some idx' -> idx' = idx
  | None -> false

(* renamed base name for a tensor's table family *)
let tname ctx (access : Tl_ir.Access.t) suffix =
  ctx.rename access.Tl_ir.Access.tensor ^ suffix

let build_unicast_input ctx access =
  List.iter
    (fun p ->
      let pairs =
        List.map
          (fun ev -> (ev.Schedule.cycle, tensor_offset ctx access ev))
          (events_of ctx p)
      in
      List.iter
        (fun (cycle, _) -> tally_read ctx access.Tl_ir.Access.tensor cycle)
        pairs;
      value_mem ctx access (pos_name (tname ctx access "_uni") p) pairs)
    (active_pes ctx)

let build_stationary_input ctx access =
  List.iter
    (fun p ->
      let per_pass =
        List.map
          (fun ev -> (ev.Schedule.pass, tensor_offset ctx access ev))
          (events_of ctx p)
      in
      tally_stage_loads ctx access.Tl_ir.Access.tensor;
      stage_mem ctx access (pos_name (tname ctx access "_st") p) per_pass)
    (active_pes ctx)

let group_by_line ctx ~dir pes =
  let rows = ctx.sched.Schedule.rows and cols = ctx.sched.Schedule.cols in
  let groups : (Geometry.pos, Geometry.pos list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun p ->
      let rep = Geometry.line_rep ~rows ~cols ~dir p in
      match Hashtbl.find_opt groups rep with
      | Some l -> l := p :: !l
      | None -> Hashtbl.add groups rep (ref [ p ]))
    pes;
  Hashtbl.fold (fun rep l acc -> (rep, List.rev !l) :: acc) groups []
  |> List.sort compare

let build_multicast_input ctx access ~dp =
  List.iter
    (fun (rep, members) ->
      let pairs =
        List.concat_map
          (fun p ->
            List.map
              (fun ev -> (ev.Schedule.cycle, tensor_offset ctx access ev))
              (events_of ctx p))
          members
      in
      List.iter
        (fun cycle -> tally_read ctx access.Tl_ir.Access.tensor cycle)
        (distinct_cycles pairs);
      List.iter (fun (cycle, _) -> tally ctx.tally_mc_link cycle) pairs;
      value_mem ctx access (pos_name (tname ctx access "_mc") rep) pairs)
    (group_by_line ctx ~dir:dp (active_pes ctx))

let build_broadcast_input ctx access =
  let pairs =
    List.concat_map
      (fun p ->
        List.map
          (fun ev -> (ev.Schedule.cycle, tensor_offset ctx access ev))
          (events_of ctx p))
      (active_pes ctx)
  in
  List.iter
    (fun cycle -> tally_read ctx access.Tl_ir.Access.tensor cycle)
    (distinct_cycles pairs);
  List.iter (fun (cycle, _) -> tally ctx.tally_mc_link cycle) pairs;
  value_mem ctx access (tname ctx access "_bc") pairs

let build_multicast_stationary_input ctx access ~multicast =
  List.iter
    (fun (rep, members) ->
      let per_pass =
        List.concat_map
          (fun p ->
            List.map
              (fun ev -> (ev.Schedule.pass, tensor_offset ctx access ev))
              (events_of ctx p))
          members
      in
      tally_stage_loads ctx access.Tl_ir.Access.tensor;
      List.iter
        (fun cycle -> tally ctx.tally_mc_link cycle)
        (stage_load_cycles ctx);
      stage_mem ctx access (pos_name (tname ctx access "_mcst") rep) per_pass)
    (group_by_line ctx ~dir:multicast (active_pes ctx))

(* Systolic chains: entry detection is purely schedule-driven, so the
   injection bitmaps and feed images replicate accel.ml's exactly. *)
let build_systolic_chains ctx access ~dp ~dt ~entry_bus =
  let tbl = index_table ctx access in
  let pes = active_pes ctx in
  List.iter
    (fun p ->
      let entries =
        List.filter
          (fun ev ->
            let idx = Schedule.tensor_index ctx.sched access ev in
            not (has_peer tbl (Geometry.back p dp) (ev.Schedule.cycle - dt) idx))
          (events_of ctx p)
      in
      let entry_cycles = List.map (fun ev -> ev.Schedule.cycle) entries in
      List.iter
        (fun ev ->
          if not (List.mem ev.Schedule.cycle entry_cycles) then
            tally ctx.tally_sys_link ev.Schedule.cycle)
        (events_of ctx p);
      if entries <> [] then begin
        bitmap_mem ctx (pos_name (tname ctx access "_inj") p) entry_cycles;
        entry_bus p entries
      end)
    pes

let build_systolic_input ctx access ~dp ~dt =
  let entry_bus p entries =
    let pairs =
      List.map
        (fun ev -> (ev.Schedule.cycle, tensor_offset ctx access ev))
        entries
    in
    List.iter
      (fun (cycle, _) -> tally_read ctx access.Tl_ir.Access.tensor cycle)
      pairs;
    value_mem ctx access (pos_name (tname ctx access "_feed") p) pairs
  in
  build_systolic_chains ctx access ~dp ~dt ~entry_bus

let build_systolic_multicast_input ctx access ~multicast ~dp ~dt =
  let rows = ctx.sched.Schedule.rows and cols = ctx.sched.Schedule.cols in
  let line_bus : (Geometry.pos, unit) Hashtbl.t = Hashtbl.create 8 in
  let line_pairs : (Geometry.pos, (int * int) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let entry_bus p entries =
    let rep = Geometry.line_rep ~rows ~cols ~dir:multicast p in
    let pairs =
      List.map
        (fun ev -> (ev.Schedule.cycle, tensor_offset ctx access ev))
        entries
    in
    List.iter (fun (cycle, _) -> tally ctx.tally_mc_link cycle) pairs;
    (match Hashtbl.find_opt line_pairs rep with
     | Some l -> l := pairs @ !l
     | None -> Hashtbl.add line_pairs rep (ref pairs));
    if not (Hashtbl.mem line_bus rep) then Hashtbl.add line_bus rep ()
  in
  build_systolic_chains ctx access ~dp ~dt ~entry_bus;
  Hashtbl.iter
    (fun rep () ->
      let pairs =
        match Hashtbl.find_opt line_pairs rep with
        | Some l -> !l
        | None -> []
      in
      List.iter
        (fun cycle -> tally_read ctx access.Tl_ir.Access.tensor cycle)
        (distinct_cycles pairs);
      value_mem ctx access (pos_name (tname ctx access "_lfeed") rep) pairs)
    line_bus

let build_input ctx (ti : Tl_stt.Design.tensor_info) =
  let access = ti.Tl_stt.Design.access in
  match ti.Tl_stt.Design.dataflow with
  | Tl_stt.Dataflow.Unicast -> build_unicast_input ctx access
  | Tl_stt.Dataflow.Stationary _ -> build_stationary_input ctx access
  | Tl_stt.Dataflow.Systolic { dp; dt } ->
    build_systolic_input ctx access ~dp ~dt
  | Tl_stt.Dataflow.Multicast { dp } -> build_multicast_input ctx access ~dp
  | Tl_stt.Dataflow.Reuse2d Tl_stt.Dataflow.Broadcast ->
    build_broadcast_input ctx access
  | Tl_stt.Dataflow.Reuse2d (Tl_stt.Dataflow.Multicast_stationary { multicast })
    ->
    build_multicast_stationary_input ctx access ~multicast
  | Tl_stt.Dataflow.Reuse2d
      (Tl_stt.Dataflow.Systolic_multicast { multicast; systolic }) ->
    build_systolic_multicast_input ctx access ~multicast
      ~dp:systolic.Tl_stt.Dataflow.dp ~dt:systolic.Tl_stt.Dataflow.dt
  | Tl_stt.Dataflow.Reuse_full ->
    raise (Unsupported "full-reuse input tensors are not implemented")

(* ------------------------------------------------------------------ *)
(* Output-tensor images.                                                *)

let out_elem ctx access ev =
  Array.to_list (Schedule.tensor_index ctx.sched access ev)

let build_stationary_output ctx access =
  let cols = ctx.sched.Schedule.cols in
  let sched = ctx.sched in
  let fp_rows =
    1 + List.fold_left (fun acc (r, _) -> max acc r) 0 (active_pes ctx)
  in
  if sched.Schedule.span < fp_rows then
    raise
      (Unsupported
         (Printf.sprintf
            "stationary output: stage span %d shorter than drain chain %d"
            sched.Schedule.span fp_rows));
  structural ctx (Printf.sprintf "fp_rows %d" fp_rows);
  let col_active = Array.make cols false in
  List.iter (fun (_, c) -> col_active.(c) <- true) (active_pes ctx);
  for c = 0 to cols - 1 do
    if col_active.(c) then begin
      let name = Printf.sprintf "obank_col%d" c in
      let collector =
        make_collector ctx ~name
          ~capacity:(fp_rows * (sched.Schedule.passes + 1))
      in
      for r = 0 to fp_rows - 1 do
        let seen_pass = Hashtbl.create 8 in
        List.iter
          (fun ev ->
            if not (Hashtbl.mem seen_pass ev.Schedule.pass) then begin
              Hashtbl.add seen_pass ev.Schedule.pass ();
              let tick_cycle =
                sched.Schedule.preload
                + ((ev.Schedule.pass + 1) * sched.Schedule.span)
                - 1
              in
              let write_cycle = tick_cycle + (fp_rows - r) in
              collector.pc_writes <-
                (write_cycle, out_elem ctx access ev) :: collector.pc_writes
            end)
          (events_of ctx (r, c))
      done;
      finalize_collector ctx name collector
    end
  done

let build_systolic_output ctx access ~dp ~dt =
  let tbl = index_table ctx access in
  let pes = active_pes ctx in
  let exits =
    List.filter_map
      (fun p ->
        let exits =
          List.filter
            (fun ev ->
              let idx = Schedule.tensor_index ctx.sched access ev in
              not (has_peer tbl (Geometry.step p dp) (ev.Schedule.cycle + dt) idx))
            (events_of ctx p)
        in
        if exits = [] then None else Some (p, exits))
      pes
  in
  List.iter
    (fun p ->
      let entries =
        List.filter
          (fun ev ->
            let idx = Schedule.tensor_index ctx.sched access ev in
            not (has_peer tbl (Geometry.back p dp) (ev.Schedule.cycle - dt) idx))
          (events_of ctx p)
      in
      (* the three psum-input cases are structural: all-fresh (constant
         zero), pure chain (neighbour), or injection-muxed (oinj bitmap) *)
      if List.length entries = List.length (events_of ctx p) then
        structural ctx (Printf.sprintf "opsum %s fresh" (pos_name "" p))
      else if entries = [] then
        structural ctx (Printf.sprintf "opsum %s chain" (pos_name "" p))
      else begin
        structural ctx (Printf.sprintf "opsum %s mux" (pos_name "" p));
        bitmap_mem ctx
          (pos_name (tname ctx access "_oinj") p)
          (List.map (fun ev -> ev.Schedule.cycle) entries)
      end)
    pes;
  List.iter
    (fun (p, exit_events) ->
      let name = pos_name (tname ctx access "_obank") p in
      let collector =
        make_collector ctx ~name ~capacity:(List.length exit_events)
      in
      List.iter
        (fun ev ->
          collector.pc_writes <-
            (ev.Schedule.cycle + dt, out_elem ctx access ev)
            :: collector.pc_writes)
        exit_events;
      finalize_collector ctx name collector)
    exits

let build_multicast_output ctx access ~dp =
  List.iter
    (fun (rep, members) ->
      let name = pos_name (tname ctx access "_tbank") rep in
      let events = List.concat_map (fun p -> events_of ctx p) members in
      let writes = Hashtbl.create 64 in
      List.iter
        (fun ev ->
          Hashtbl.replace writes ev.Schedule.cycle (out_elem ctx access ev))
        events;
      let collector =
        make_collector ctx ~name ~capacity:(Hashtbl.length writes)
      in
      Hashtbl.iter
        (fun cycle elem ->
          collector.pc_writes <- (cycle, elem) :: collector.pc_writes)
        writes;
      finalize_collector ctx name collector)
    (group_by_line ctx ~dir:dp (active_pes ctx))

let build_multicast_stationary_output ctx access ~multicast =
  let sched = ctx.sched in
  List.iter
    (fun (rep, members) ->
      let name = pos_name (tname ctx access "_tsbank") rep in
      let per_pass = Hashtbl.create 8 in
      List.iter
        (fun p ->
          List.iter
            (fun ev ->
              Hashtbl.replace per_pass ev.Schedule.pass
                (out_elem ctx access ev))
            (events_of ctx p))
        members;
      let collector =
        make_collector ctx ~name ~capacity:(Hashtbl.length per_pass)
      in
      Hashtbl.iter
        (fun pass elem ->
          let tick_cycle =
            sched.Schedule.preload + ((pass + 1) * sched.Schedule.span) - 1
          in
          collector.pc_writes <- (tick_cycle, elem) :: collector.pc_writes)
        per_pass;
      finalize_collector ctx name collector)
    (group_by_line ctx ~dir:multicast (active_pes ctx))

let build_unicast_output ctx access =
  List.iter
    (fun p ->
      let events = events_of ctx p in
      let name = pos_name (tname ctx access "_ubank") p in
      let collector =
        make_collector ctx ~name ~capacity:(List.length events)
      in
      List.iter
        (fun ev ->
          collector.pc_writes <-
            (ev.Schedule.cycle, out_elem ctx access ev) :: collector.pc_writes)
        events;
      finalize_collector ctx name collector)
    (active_pes ctx)

let build_output ctx (ti : Tl_stt.Design.tensor_info) =
  let access = ti.Tl_stt.Design.access in
  match ti.Tl_stt.Design.dataflow with
  | Tl_stt.Dataflow.Unicast -> build_unicast_output ctx access
  | Tl_stt.Dataflow.Stationary _ -> build_stationary_output ctx access
  | Tl_stt.Dataflow.Systolic { dp; dt } ->
    build_systolic_output ctx access ~dp ~dt
  | Tl_stt.Dataflow.Multicast { dp } -> build_multicast_output ctx access ~dp
  | Tl_stt.Dataflow.Reuse2d (Tl_stt.Dataflow.Multicast_stationary { multicast })
    ->
    build_multicast_stationary_output ctx access ~multicast
  | Tl_stt.Dataflow.Reuse2d Tl_stt.Dataflow.Broadcast
  | Tl_stt.Dataflow.Reuse2d (Tl_stt.Dataflow.Systolic_multicast _)
  | Tl_stt.Dataflow.Reuse_full ->
    raise
      (Unsupported
         (Printf.sprintf "output dataflow %s has no netlist template"
            (Tl_stt.Dataflow.to_string ti.Tl_stt.Design.dataflow)))

(* ------------------------------------------------------------------ *)

let build ?(rename = Fun.id) (design : Tl_stt.Design.t) ~rows ~cols =
  let sched =
    try Schedule.build design ~rows ~cols
    with Schedule.Unsupported msg -> raise (Unsupported msg)
  in
  let total =
    total_cycles ~compute_end:sched.Schedule.compute_end ~rows design
  in
  let stmt = design.Tl_stt.Design.transform.Tl_stt.Transform.stmt in
  let shapes =
    List.map
      (fun (a : Tl_ir.Access.t) ->
        (a.Tl_ir.Access.tensor,
         Tl_ir.Access.shape a stmt.Tl_ir.Stmt.iters))
      (Tl_ir.Stmt.tensors stmt)
  in
  let ctx =
    { sched; total; rename; shapes; mems = []; inputs = [];
      seen_inputs = Hashtbl.create 8; out_locs = Hashtbl.create 64;
      banks = []; tally_reads = Hashtbl.create 4;
      tally_sys_link = Array.make total 0;
      tally_mc_link = Array.make total 0; struct_lines = [] }
  in
  (* structural preamble: grid, tensors, dataflows — everything that fixes
     the netlist shape beyond the table contents *)
  structural ctx
    (Printf.sprintf "grid %dx%d" sched.Schedule.rows sched.Schedule.cols);
  List.iteri
    (fun i (ti : Tl_stt.Design.tensor_info) ->
      structural ctx
        (Printf.sprintf "tensor %d %s %s %s" i
           (rename ti.Tl_stt.Design.access.Tl_ir.Access.tensor)
           (match ti.Tl_stt.Design.role with
            | Tl_stt.Design.Input -> "in"
            | Tl_stt.Design.Output -> "out")
           (Tl_stt.Dataflow.to_string ti.Tl_stt.Design.dataflow)))
    design.Tl_stt.Design.tensors;
  structural ctx
    (String.concat " "
       ("pes"
        :: List.map (fun (r, c) -> Printf.sprintf "%d,%d" r c)
             (active_pes ctx)));
  (* controller streams: done saturates the cycle counter at total-1 (so
     zero padding past the natural length is harmless), tick marks the
     last cycle of each pass *)
  bitmap_mem ctx "ctrl_done" [ total - 1 ];
  bitmap_mem ctx "ctrl_tick"
    (List.init sched.Schedule.passes (fun p ->
         sched.Schedule.preload + ((p + 1) * sched.Schedule.span) - 1));
  (* input tensors, then per-PE valid bitmaps, then the output — the same
     elaboration order as [Accel.generate] *)
  List.iter (fun ti -> build_input ctx ti) (Tl_stt.Design.input_infos design);
  List.iter
    (fun p ->
      bitmap_mem ctx (pos_name "valid" p)
        (List.map (fun ev -> ev.Schedule.cycle) (events_of ctx p)))
    (active_pes ctx);
  build_output ctx (Tl_stt.Design.output_info design);
  (* counter-increment images, in accel.ml's elaboration order: per-tensor
     reads (sorted), then the two link tallies.  Emitted unconditionally —
     the loader only consumes the ones the target netlist elaborated. *)
  Hashtbl.fold (fun t a acc -> (t, a) :: acc) ctx.tally_reads []
  |> List.sort compare
  |> List.iter (fun (t, a) ->
         add_mem ctx ~domain:Cycle ("ctr_rd_" ^ rename t ^ "_inc") a);
  add_mem ctx ~domain:Cycle "ctr_link_systolic_inc" ctx.tally_sys_link;
  add_mem ctx ~domain:Cycle "ctr_link_multicast_inc" ctx.tally_mc_link;
  let mems = List.rev ctx.mems in
  (* the structure signature appends the (sorted) schedule-memory name and
     domain set — counters excluded so a program compiled for a plain
     target also describes the counters-on netlist of the same core *)
  let mem_lines =
    List.filter_map
      (fun m ->
        if String.length m.m_name >= 4 && String.sub m.m_name 0 4 = "ctr_"
        then None
        else Some (Printf.sprintf "mem %s %s" m.m_name (domain_string m.m_domain)))
      mems
    |> List.sort compare
  in
  let bank_lines =
    List.rev_map (fun (name, _, _) -> "bank " ^ name) ctx.banks
    |> List.sort compare
  in
  let structure =
    String.concat "\n" (List.rev ctx.struct_lines @ mem_lines @ bank_lines)
  in
  let out_access = (Tl_stt.Design.output_info design).Tl_stt.Design.access in
  { l_design = design; l_rows = rows; l_cols = cols; l_total = total;
    l_passes = sched.Schedule.passes; l_events = sched.Schedule.event_count;
    l_structure = structure; l_mems = mems;
    l_inputs = List.rev ctx.inputs; l_banks = List.rev ctx.banks;
    l_out =
      Hashtbl.fold (fun idx loc acc -> (idx, loc) :: acc) ctx.out_locs []
      |> List.sort compare;
    l_out_shape = shape_of ctx out_access.Tl_ir.Access.tensor }

let structure_digest structure = Tl_stt.Signature.key_digest structure

let to_program ?name l =
  let name =
    match name with
    | Some n -> n
    | None -> l.l_design.Tl_stt.Design.name
  in
  { p_name = name; p_structure = l.l_structure; p_total = l.l_total;
    p_passes = l.l_passes; p_events = l.l_events;
    p_images =
      List.map (fun m -> (m.m_name, (m.m_domain, m.m_image))) l.l_mems;
    p_inputs = l.l_inputs; p_out = l.l_out; p_out_shape = l.l_out_shape }
