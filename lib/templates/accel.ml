open Tl_hw

exception Unsupported of string

exception Simulation_timeout of { design : string; cycles : int }

exception Bad_program of string

type prog_info = {
  pi_envelope : Layout.envelope;
  pi_structure : string;
      (** canonical netlist-shape string ({!Layout.field-l_structure}) of the
          generating design; a program loads iff its structure matches *)
  pi_mems : (string * Signal.ram) list;
      (** writable descriptor memories by name, in elaboration order *)
}

type t = {
  design : Tl_stt.Design.t;
  rows : int;
  cols : int;
  data_width : int;
  acc_width : int;
  schedule : Schedule.t;
  circuit : Circuit.t;
  total_cycles : int;
  out_locs : (int list, Signal.ram * int) Hashtbl.t;
  banks : (string * Signal.ram) list;
  input_rams : (string * Signal.ram) list;
      (** per-tensor linear data memories; rewrite them to re-run the same
          accelerator on fresh data *)
  hardening : Harden.applied;
  counter_ports : string list;
      (** output-port names of the performance counters elaborated by
          [~counters]; empty when counters are off *)
  prog : prog_info option;
      (** [Some _] iff generated with [~programmable]: the schedule tables
          are envelope-sized writable descriptor memories and the
          accelerator accepts {!load_program} / {!execute_program} *)
}

let bits_for n =
  let rec go b = if 1 lsl b > n then b else go (b + 1) in
  max 1 (go 1)

(* ------------------------------------------------------------------ *)
(* Elaboration context shared by the per-tensor builders.              *)

(* ROM mode bakes each schedule table into an elaborated rom of natural
   size; programmable mode sizes the same table to the capacity envelope
   and records it so [load_program] can rewrite it at runtime.  The
   envelope makes every table size — and therefore every derived address
   width — independent of the generating shape, which is exactly what lets
   one netlist serve any schedule that fits the envelope. *)
type table_mode = [ `Rom | `Prog of Layout.envelope ]

type ctx = {
  mode : table_mode;
  mutable prog_mems : (string * Signal.ram) list;  (* reverse order *)
  sched : Schedule.t;
  dw : int;
  aw : int;
  total : int;
  cw : int;  (* cycle counter width *)
  cycle : Signal.t;
  tick : Signal.t;        (* last cycle of each pass *)
  stage_start : Signal.t; (* first cycle of passes 1.. *)
  stage_load : Signal.t;  (* preload tick or pass tick: stationary load *)
  stage_load_addr : Signal.t;
  drain_shift : Signal.t;
  pass_sig : Signal.t;
  env : Tl_ir.Exec.env;
  data_rams : (string, Signal.ram) Hashtbl.t;
  out_locs : (int list, Signal.ram * int) Hashtbl.t;
  mutable bank_list : (string * Signal.ram) list;
  mutable probe_outputs : (string * Signal.t) list;
  probe_addr : Signal.t;
  harden : Harden.config;
  parity_of_ram : (int, Signal.ram) Hashtbl.t;  (* ram id → parity ram *)
  mutable parity_pairs : (Signal.ram * Signal.ram) list;
  mutable parity_errs : Signal.t list;  (* comb parity-mismatch strobes *)
  (* observability bookkeeping: the builders tally, per cycle, how many
     useful reads each input memory serves and how many values cross
     systolic hops / multicast buses; [generate ~counters] compiles the
     tallies into increment ROMs + accumulator registers.  Tallies are
     pure metadata — no hardware is created unless counters are on. *)
  tally_reads : (string, int array) Hashtbl.t;  (* tensor → per-cycle *)
  tally_sys_link : int array;
  tally_mc_link : int array;
  mutable write_strobes : (string * Signal.t) list;  (* bank name → we *)
}

(* Parity companion of a ram: created on demand when parity hardening is
   on.  Read-only rams get a read-only companion initialised to the
   parity of their image; writable banks get a writable companion whose
   write port the caller hooks up alongside the data write. *)
let parity_ram ctx (r : Signal.ram) =
  match Hashtbl.find_opt ctx.parity_of_ram r.Signal.ram_id with
  | Some p -> p
  | None ->
    let name = r.Signal.ram_name ^ "_parity" in
    let p =
      Signal.ram ~name ~read_only:r.Signal.read_only ~size:r.Signal.size
        ~width:1
        ~init:(Array.map Harden.parity_bit r.Signal.init_data)
        ()
    in
    Hashtbl.add ctx.parity_of_ram r.Signal.ram_id p;
    ctx.parity_pairs <- (r, p) :: ctx.parity_pairs;
    p

(* Re-check a scheduled read: data parity vs stored parity bit. *)
let parity_check ctx ram ~addr ~data =
  if ctx.harden.Harden.parity_banks then begin
    let p = parity_ram ctx ram in
    let err = Signal.(Harden.parity_of data ^: Signal.ram_read p addr) in
    ctx.parity_errs <- err :: ctx.parity_errs
  end

(* Every schedule table goes through this chokepoint.  [`Rom]: an
   elaborated rom of natural size, exactly as before.  [`Prog]: a
   read-only (config-plane-written) ram sized by the envelope and
   zero-padded past the natural image — safe because the controller's
   saturating done flag keeps the cycle counter off the padding. *)
let table_ram ~mode ~record ~domain ~name ~width data =
  match (mode : table_mode) with
  | `Rom -> Signal.rom ~name ~width data
  | `Prog e ->
    let size =
      match domain with
      | Layout.Cycle -> e.Layout.env_cycles
      | Layout.Pass -> e.Layout.env_passes + 1
    in
    if Array.length data > size then
      raise
        (Unsupported
           (Printf.sprintf
              "programmable envelope too small for %s: need %d, capacity %d"
              name (Array.length data) size));
    let init = Array.make size 0 in
    Array.blit data 0 init 0 (Array.length data);
    let r = Signal.ram ~name ~read_only:true ~size ~width ~init () in
    record := (name, r) :: !record;
    r

let sched_table ctx ~domain ~name ~width data =
  let record = ref [] in
  let r = table_ram ~mode:ctx.mode ~record ~domain ~name ~width data in
  ctx.prog_mems <- !record @ ctx.prog_mems;
  r

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

(* Input data lives in one linear (row-major) memory per tensor, as a DMA
   engine would deposit it; feeders address it through schedule-table ROMs
   (cycle -> address).  This factors data from schedule: the same generated
   accelerator re-runs on fresh data by rewriting the data memories only
   (see [execute_with]). *)
let data_ram ctx (access : Tl_ir.Access.t) =
  let name = access.Tl_ir.Access.tensor in
  match Hashtbl.find_opt ctx.data_rams name with
  | Some r -> r
  | None ->
    let dense = List.assoc name ctx.env in
    let natural = Tl_ir.Dense.size dense in
    let size =
      match ctx.mode with
      | `Rom -> natural
      | `Prog e ->
        if natural > e.Layout.env_elems then
          raise
            (Unsupported
               (Printf.sprintf
                  "programmable envelope too small for %s: %d elements, \
                   capacity %d"
                  name natural e.Layout.env_elems));
        e.Layout.env_elems
    in
    let init =
      Array.init size (fun i ->
          if i < natural then Tl_ir.Dense.flat_get dense i else 0)
    in
    let r =
      (* pre-loaded data memory: the netlist never writes it (a DMA engine
         or [Sim.load_ram] fills it), so it is a rom to the lint *)
      Signal.ram ~name:(name ^ "_mem") ~read_only:true ~size ~width:ctx.dw
        ~init ()
    in
    Hashtbl.add ctx.data_rams name r;
    r

let tensor_offset ctx access ev =
  let idx = Schedule.tensor_index ctx.sched access ev in
  let dense = List.assoc access.Tl_ir.Access.tensor ctx.env in
  Tl_ir.Dense.offset dense idx

(* feed port: data_mem[addr_rom[cycle]] *)
let value_rom ctx access name pairs =
  let mem = data_ram ctx access in
  let abits = bits_for mem.Signal.size in
  let data = Array.make ctx.total 0 in
  List.iter (fun (cycle, off) -> data.(cycle) <- off) pairs;
  let rom =
    sched_table ctx ~domain:Layout.Cycle ~name:(name ^ "_addr") ~width:abits
      data
  in
  let addr = Signal.ram_read rom ctx.cycle in
  let value = Signal.ram_read mem addr in
  parity_check ctx mem ~addr ~data:value;
  value

let bitmap_rom ctx name cycles =
  let data = Array.make ctx.total 0 in
  List.iter (fun cycle -> data.(cycle) <- 1) cycles;
  let rom = sched_table ctx ~domain:Layout.Cycle ~name ~width:1 data in
  Signal.ram_read rom ctx.cycle

(* stationary feed: one address per pass (+ trailing zero entry) *)
let stage_rom ctx access name per_pass =
  let mem = data_ram ctx access in
  let abits = bits_for mem.Signal.size in
  let data = Array.make (ctx.sched.Schedule.passes + 1) 0 in
  List.iter (fun (pass, off) -> data.(pass) <- off) per_pass;
  let rom =
    sched_table ctx ~domain:Layout.Pass ~name:(name ^ "_saddr") ~width:abits
      data
  in
  let addr = Signal.ram_read rom ctx.stage_load_addr in
  let value = Signal.ram_read mem addr in
  parity_check ctx mem ~addr ~data:value;
  value

let pos_name prefix (r, c) = Printf.sprintf "%s_%d_%d" prefix r c

(* ------------------------------------------------------------------ *)
(* Observability tallies (see the ctx comment).  The counting rules
   mirror Perf_model's per-tensor traffic accounting so the compiled
   counters can be cross-checked against the analytical model:
   - unicast: one read per PE event;
   - multicast / broadcast: one read per distinct bus cycle, one link
     delivery per member event;
   - stationary (and multicast-stationary): one read per port per useful
     stage load — the preload tick plus every pass tick except the last,
     whose load fetches the trailing dummy entry and is not counted;
   - systolic: one read per chain-entry injection, one link transfer per
     event served by a neighbour hop. *)

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

(* useful stage loads of one stationary port: preload tick + the pass
   ticks of passes 0..passes-2 (the final tick loads the dummy entry) *)
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
(* Collector banks: accumulate-in-place output memories.               *)

type collector = {
  bank : Signal.ram;
  alloc : int list -> int;  (* element index → bank address *)
  mutable writes : (int * int list) list;  (* (cycle, element) *)
}

let make_collector ctx ~name ~capacity =
  let size =
    match ctx.mode with
    | `Rom -> max 1 capacity
    | `Prog e ->
      if max 1 capacity > max 1 e.Layout.env_bank then
        raise
          (Unsupported
             (Printf.sprintf
                "programmable envelope too small for %s: %d cells, capacity \
                 %d"
                name (max 1 capacity) e.Layout.env_bank));
      max 1 e.Layout.env_bank
  in
  let bank =
    Signal.ram ~name ~size ~width:ctx.aw ~init:(Array.make size 0) ()
  in
  let table : (int list, int) Hashtbl.t = Hashtbl.create 16 in
  let next = ref 0 in
  let alloc idx =
    match Hashtbl.find_opt table idx with
    | Some a -> a
    | None ->
      let a = !next in
      if a >= max 1 capacity then
        raise (Unsupported ("collector bank overflow: " ^ name));
      incr next;
      Hashtbl.add table idx a;
      Hashtbl.replace ctx.out_locs idx (bank, a);
      a
  in
  ctx.bank_list <- (name, bank) :: ctx.bank_list;
  { bank; alloc; writes = [] }

(* wire the collector: ROM-scheduled read-modify-write accumulation *)
let finalize_collector ctx name col value =
  let open Signal in
  let aw_bits = bits_for (col.bank.Signal.size - 1 + 1) in
  let we_data = Array.make ctx.total 0 in
  let addr_data = Array.make ctx.total 0 in
  List.iter
    (fun (cycle, idx) ->
      if we_data.(cycle) <> 0 then
        raise (Unsupported ("collector write conflict: " ^ name));
      we_data.(cycle) <- 1;
      addr_data.(cycle) <- col.alloc idx)
    col.writes;
  let we_rom =
    sched_table ctx ~domain:Layout.Cycle ~name:(name ^ "_we") ~width:1 we_data
  in
  let addr_rom =
    sched_table ctx ~domain:Layout.Cycle ~name:(name ^ "_addr") ~width:aw_bits
      addr_data
  in
  let we = ram_read we_rom ctx.cycle in
  let addr = ram_read addr_rom ctx.cycle in
  let old = ram_read col.bank addr in
  ctx.write_strobes <- (name, we) :: ctx.write_strobes;
  Signal.ram_write col.bank ~we ~addr ~data:(old +: value);
  if ctx.harden.Harden.parity_banks then begin
    (* parity companion follows every accumulate; the read-modify-write
       path re-checks the parity of the accumulator value it consumes *)
    let p = parity_ram ctx col.bank in
    Signal.ram_write p ~we ~addr ~data:(Harden.parity_of (old +: value));
    let err = we &: (Harden.parity_of old ^: ram_read p addr) in
    ctx.parity_errs <- err :: ctx.parity_errs
  end;
  (* probe port so the bank is observable (and reachable) *)
  let pbits = min (width ctx.probe_addr) aw_bits in
  let paddr = uresize (select ctx.probe_addr ~hi:(pbits - 1) ~lo:0) aw_bits in
  ctx.probe_outputs <-
    (name ^ "_probe", ram_read col.bank paddr) :: ctx.probe_outputs

(* ------------------------------------------------------------------ *)
(* Input-tensor hardware.  Returns the per-PE operand ("use") signals. *)

let zero_uses rows cols = Array.init rows (fun _ -> Array.make cols None)

let set_use uses (r, c) s = uses.(r).(c) <- Some s

(* element accessed by each (pe, cycle) for a tensor: entry detection *)
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

let build_unicast_input ctx access uses =
  List.iter
    (fun p ->
      let pairs =
        List.map
          (fun ev -> (ev.Schedule.cycle, tensor_offset ctx access ev))
          (events_of ctx p)
      in
      List.iter (fun (cycle, _) -> tally_read ctx access.Tl_ir.Access.tensor cycle)
        pairs;
      let name = pos_name (access.Tl_ir.Access.tensor ^ "_uni") p in
      set_use uses p (value_rom ctx access name pairs))
    (active_pes ctx)

let build_stationary_input ctx access uses =
  List.iter
    (fun p ->
      let per_pass =
        List.map
          (fun ev -> (ev.Schedule.pass, tensor_offset ctx access ev))
          (events_of ctx p)
      in
      tally_stage_loads ctx access.Tl_ir.Access.tensor;
      let name = pos_name (access.Tl_ir.Access.tensor ^ "_st") p in
      let next = stage_rom ctx access name per_pass in
      set_use uses p
        Signal.(
          Pe_modules.stationary_input ~load:ctx.stage_load ~next
          -- pos_name (access.Tl_ir.Access.tensor ^ "_stin") p))
    (active_pes ctx)

(* Multicast and broadcast: one bus per line (or one global bus). *)
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

let build_multicast_input ctx access ~dp uses =
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
      List.iter (fun cycle -> tally_read ctx access.Tl_ir.Access.tensor cycle)
        (distinct_cycles pairs);
      List.iter (fun (cycle, _) -> tally ctx.tally_mc_link cycle) pairs;
      let name = pos_name (access.Tl_ir.Access.tensor ^ "_mc") rep in
      let bus = value_rom ctx access name pairs in
      List.iter (fun p -> set_use uses p (Pe_modules.direct_input ~bus))
        members)
    (group_by_line ctx ~dir:dp (active_pes ctx))

let build_broadcast_input ctx access uses =
  let pairs =
    List.concat_map
      (fun p ->
        List.map
          (fun ev -> (ev.Schedule.cycle, tensor_offset ctx access ev))
          (events_of ctx p))
      (active_pes ctx)
  in
  List.iter (fun cycle -> tally_read ctx access.Tl_ir.Access.tensor cycle)
    (distinct_cycles pairs);
  List.iter (fun (cycle, _) -> tally ctx.tally_mc_link cycle) pairs;
  let bus = value_rom ctx access (access.Tl_ir.Access.tensor ^ "_bc") pairs in
  List.iter (fun p -> set_use uses p (Pe_modules.direct_input ~bus))
    (active_pes ctx)

let build_multicast_stationary_input ctx access ~multicast uses =
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
      (* each useful stage load travels the line bus once *)
      List.iter (fun cycle -> tally ctx.tally_mc_link cycle)
        (stage_load_cycles ctx);
      let name = pos_name (access.Tl_ir.Access.tensor ^ "_mcst") rep in
      let next = stage_rom ctx access name per_pass in
      let held =
        Signal.(
          Pe_modules.stationary_input ~load:ctx.stage_load ~next
          -- pos_name (access.Tl_ir.Access.tensor ^ "_stin") rep)
      in
      List.iter (fun p -> set_use uses p held) members)
    (group_by_line ctx ~dir:multicast (active_pes ctx))

(* Systolic chains, optionally fed from multicast entry buses (2-D reuse).
   [entry_bus p] gives the injection value signal for an entry at PE [p]. *)
let build_systolic_chains ctx access ~dp ~dt ~entry_bus uses =
  let rows = ctx.sched.Schedule.rows and cols = ctx.sched.Schedule.cols in
  let tbl = index_table ctx access in
  let pes = active_pes ctx in
  let wires = Array.init rows (fun _ -> Array.make cols None) in
  List.iter
    (fun (r, c) -> wires.(r).(c) <- Some (Signal.wire ctx.dw))
    pes;
  List.iter
    (fun p ->
      let r, c = p in
      let entries =
        List.filter
          (fun ev ->
            let idx = Schedule.tensor_index ctx.sched access ev in
            not (has_peer tbl (Geometry.back p dp) (ev.Schedule.cycle - dt) idx))
          (events_of ctx p)
      in
      (* every event not served by an injection rides a neighbour hop *)
      let entry_cycles = List.map (fun ev -> ev.Schedule.cycle) entries in
      List.iter
        (fun ev ->
          if not (List.mem ev.Schedule.cycle entry_cycles) then
            tally ctx.tally_sys_link ev.Schedule.cycle)
        (events_of ctx p);
      let neighbor =
        let pr, pc = Geometry.back p dp in
        if Geometry.in_grid ~rows ~cols (pr, pc) then
          match wires.(pr).(pc) with
          | Some w -> w
          | None -> Signal.const ~width:ctx.dw 0
        else Signal.const ~width:ctx.dw 0
      in
      let din =
        if entries = [] then neighbor
        else begin
          let inject =
            bitmap_rom ctx
              (pos_name (access.Tl_ir.Access.tensor ^ "_inj") p)
              (List.map (fun ev -> ev.Schedule.cycle) entries)
          in
          let feed = entry_bus p entries in
          Signal.mux2 inject feed neighbor
        end
      in
      let use, dout = Pe_modules.systolic_input ~dt ~din in
      if dt > 0 then
        (* the chain register carrying data to the neighbour: interconnect *)
        ignore
          Signal.(dout -- pos_name (access.Tl_ir.Access.tensor ^ "_sysin") p);
      (match wires.(r).(c) with
       | Some w -> Signal.assign w dout
       | None -> assert false);
      set_use uses p use)
    pes

let build_systolic_input ctx access ~dp ~dt uses =
  let entry_bus p entries =
    let pairs =
      List.map
        (fun ev -> (ev.Schedule.cycle, tensor_offset ctx access ev))
        entries
    in
    List.iter (fun (cycle, _) -> tally_read ctx access.Tl_ir.Access.tensor cycle)
      pairs;
    value_rom ctx access
      (pos_name (access.Tl_ir.Access.tensor ^ "_feed") p)
      pairs
  in
  build_systolic_chains ctx access ~dp ~dt ~entry_bus uses

(* 2-D systolic+multicast: entries on the same line (along the multicast
   direction) share one feed bus per line. *)
let build_systolic_multicast_input ctx access ~multicast ~dp ~dt uses =
  let rows = ctx.sched.Schedule.rows and cols = ctx.sched.Schedule.cols in
  let line_bus : (Geometry.pos, Signal.t) Hashtbl.t = Hashtbl.create 8 in
  let line_pairs : (Geometry.pos, (int * int) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  (* first sweep: collect entry values per line (needs the same entry
     detection as the chain builder, so run it in the entry_bus callback
     and create per-line buses lazily backed by wires) *)
  let entry_bus p entries =
    let rep = Geometry.line_rep ~rows ~cols ~dir:multicast p in
    let pairs =
      List.map
        (fun ev -> (ev.Schedule.cycle, tensor_offset ctx access ev))
        entries
    in
    (* each injected entry is a delivery over the shared line feed bus *)
    List.iter (fun (cycle, _) -> tally ctx.tally_mc_link cycle) pairs;
    (match Hashtbl.find_opt line_pairs rep with
     | Some l -> l := pairs @ !l
     | None -> Hashtbl.add line_pairs rep (ref pairs));
    match Hashtbl.find_opt line_bus rep with
    | Some bus -> bus
    | None ->
      let bus = Signal.wire ctx.dw in
      Hashtbl.add line_bus rep bus;
      bus
  in
  build_systolic_chains ctx access ~dp ~dt ~entry_bus uses;
  Hashtbl.iter
    (fun rep bus ->
      let pairs =
        match Hashtbl.find_opt line_pairs rep with
        | Some l -> !l
        | None -> []
      in
      List.iter (fun cycle -> tally_read ctx access.Tl_ir.Access.tensor cycle)
        (distinct_cycles pairs);
      let v =
        value_rom ctx access
          (pos_name (access.Tl_ir.Access.tensor ^ "_lfeed") rep)
          pairs
      in
      Signal.assign bus v)
    line_bus

(* ------------------------------------------------------------------ *)

let build_input ctx (ti : Tl_stt.Design.tensor_info) uses =
  let access = ti.Tl_stt.Design.access in
  match ti.Tl_stt.Design.dataflow with
  | Tl_stt.Dataflow.Unicast -> build_unicast_input ctx access uses
  | Tl_stt.Dataflow.Stationary _ -> build_stationary_input ctx access uses
  | Tl_stt.Dataflow.Systolic { dp; dt } ->
    build_systolic_input ctx access ~dp ~dt uses
  | Tl_stt.Dataflow.Multicast { dp } ->
    build_multicast_input ctx access ~dp uses
  | Tl_stt.Dataflow.Reuse2d Tl_stt.Dataflow.Broadcast ->
    build_broadcast_input ctx access uses
  | Tl_stt.Dataflow.Reuse2d (Tl_stt.Dataflow.Multicast_stationary { multicast })
    ->
    build_multicast_stationary_input ctx access ~multicast uses
  | Tl_stt.Dataflow.Reuse2d
      (Tl_stt.Dataflow.Systolic_multicast { multicast; systolic }) ->
    build_systolic_multicast_input ctx access ~multicast
      ~dp:systolic.Tl_stt.Dataflow.dp ~dt:systolic.Tl_stt.Dataflow.dt uses
  | Tl_stt.Dataflow.Reuse_full ->
    raise (Unsupported "full-reuse input tensors are not implemented")

(* ------------------------------------------------------------------ *)
(* Output-tensor hardware.                                             *)

let out_elem ctx access ev =
  Array.to_list (Schedule.tensor_index ctx.sched access ev)

let build_stationary_output ctx access ~prods ~valids =
  let cols = ctx.sched.Schedule.cols in
  let sched = ctx.sched in
  (* the drain chain only spans the active footprint rows *)
  let fp_rows =
    1 + List.fold_left (fun acc (r, _) -> max acc r) 0 (active_pes ctx)
  in
  if sched.Schedule.span < fp_rows then
    raise
      (Unsupported
         (Printf.sprintf
            "stationary output: stage span %d shorter than drain chain %d"
            sched.Schedule.span fp_rows));
  (* columns containing at least one active PE *)
  let col_active = Array.make cols false in
  List.iter (fun (_, c) -> col_active.(c) <- true) (active_pes ctx);
  for c = 0 to cols - 1 do
    if col_active.(c) then begin
      let collector =
        make_collector ctx
          ~name:(Printf.sprintf "obank_col%d" c)
          ~capacity:(fp_rows * (sched.Schedule.passes + 1))
      in
      let shadow_above = ref (Signal.const ~width:ctx.aw 0) in
      for r = 0 to fp_rows - 1 do
        let prod =
          match prods.(r).(c) with
          | Some p -> p
          | None -> Signal.const ~width:ctx.aw 0
        in
        let valid =
          match valids.(r).(c) with Some v -> v | None -> Signal.gnd
        in
        let m =
          Pe_modules.stationary_output ~valid ~stage_start:ctx.stage_start
            ~capture:ctx.tick ~drain_shift:ctx.drain_shift
            ~contribution:prod ~shadow_in:!shadow_above
        in
        ignore Signal.(m.Pe_modules.acc -- pos_name "acc" (r, c));
        ignore Signal.(m.Pe_modules.shadow -- pos_name "shadow" (r, c));
        shadow_above := m.Pe_modules.shadow;
        (* schedule the drain writes for this PE *)
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
              collector.writes <-
                (write_cycle, out_elem ctx access ev) :: collector.writes
            end)
          (events_of ctx (r, c))
      done;
      finalize_collector ctx
        (Printf.sprintf "obank_col%d" c)
        collector !shadow_above
    end
  done

let build_systolic_output ctx access ~dp ~dt ~prods ~valids =
  let rows = ctx.sched.Schedule.rows and cols = ctx.sched.Schedule.cols in
  let tbl = index_table ctx access in
  let pes = active_pes ctx in
  let wires = Array.init rows (fun _ -> Array.make cols None) in
  List.iter (fun (r, c) -> wires.(r).(c) <- Some (Signal.wire ctx.aw)) pes;
  let exits : (Geometry.pos * Schedule.event list) list =
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
      let r, c = p in
      let entries =
        List.filter
          (fun ev ->
            let idx = Schedule.tensor_index ctx.sched access ev in
            not (has_peer tbl (Geometry.back p dp) (ev.Schedule.cycle - dt) idx))
          (events_of ctx p)
      in
      let neighbor =
        let pr, pc = Geometry.back p dp in
        if Geometry.in_grid ~rows ~cols (pr, pc) then
          match wires.(pr).(pc) with
          | Some w -> w
          | None -> Signal.const ~width:ctx.aw 0
        else Signal.const ~width:ctx.aw 0
      in
      let psum_in =
        if List.length entries = List.length (events_of ctx p) then
          (* every event starts a fresh chain here *)
          Signal.const ~width:ctx.aw 0
        else if entries = [] then neighbor
        else begin
          let inject =
            bitmap_rom ctx
              (pos_name (access.Tl_ir.Access.tensor ^ "_oinj") p)
              (List.map (fun ev -> ev.Schedule.cycle) entries)
          in
          Signal.mux2 inject (Signal.const ~width:ctx.aw 0) neighbor
        end
      in
      let prod =
        match prods.(r).(c) with
        | Some s -> s
        | None -> Signal.const ~width:ctx.aw 0
      in
      let valid =
        match valids.(r).(c) with Some v -> v | None -> Signal.gnd
      in
      let contribution = Pe_modules.tree_contribution ~valid ~contribution:prod in
      let out = Pe_modules.systolic_output ~dt ~psum_in ~contribution in
      if dt > 0 then
        ignore
          Signal.(out -- pos_name (access.Tl_ir.Access.tensor ^ "_sysout") p);
      match wires.(r).(c) with
      | Some w -> Signal.assign w out
      | None -> assert false)
    pes;
  List.iter
    (fun (p, exit_events) ->
      let name = pos_name (access.Tl_ir.Access.tensor ^ "_obank") p in
      let collector =
        make_collector ctx ~name ~capacity:(List.length exit_events)
      in
      List.iter
        (fun ev ->
          collector.writes <-
            (ev.Schedule.cycle + dt, out_elem ctx access ev)
            :: collector.writes)
        exit_events;
      let r, c = p in
      let value =
        match wires.(r).(c) with Some w -> w | None -> assert false
      in
      finalize_collector ctx name collector value)
    exits

let gated_tree ctx members ~prods ~valids =
  let leaves =
    List.map
      (fun (r, c) ->
        let prod =
          match prods.(r).(c) with
          | Some s -> s
          | None -> Signal.const ~width:ctx.aw 0
        in
        let valid =
          match valids.(r).(c) with Some v -> v | None -> Signal.gnd
        in
        Pe_modules.tree_contribution ~valid ~contribution:prod)
      members
  in
  Reduce_tree.build leaves

let build_multicast_output ctx access ~dp ~prods ~valids =
  List.iter
    (fun (rep, members) ->
      let root = gated_tree ctx members ~prods ~valids in
      let name = pos_name (access.Tl_ir.Access.tensor ^ "_tbank") rep in
      let events =
        List.concat_map (fun p -> events_of ctx p) members
      in
      (* one write per (cycle, element); all members at a cycle share one *)
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
          collector.writes <- (cycle, elem) :: collector.writes)
        writes;
      finalize_collector ctx name collector root)
    (group_by_line ctx ~dir:dp (active_pes ctx))

let build_multicast_stationary_output ctx access ~multicast ~prods ~valids =
  let sched = ctx.sched in
  List.iter
    (fun (rep, members) ->
      let open Signal in
      let tree = gated_tree ctx members ~prods ~valids in
      let accw = wire ctx.aw in
      let acc_d = mux2 ctx.stage_start tree (accw +: tree) in
      let acc = reg acc_d -- pos_name "acc" rep in
      assign accw acc;
      let name = pos_name (access.Tl_ir.Access.tensor ^ "_tsbank") rep in
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
          collector.writes <- (tick_cycle, elem) :: collector.writes)
        per_pass;
      (* at the tick the full stage total is acc + tree (the reg input) *)
      finalize_collector ctx name collector acc_d)
    (group_by_line ctx ~dir:multicast (active_pes ctx))

let build_unicast_output ctx access ~prods ~valids =
  List.iter
    (fun p ->
      let r, c = p in
      let prod =
        match prods.(r).(c) with
        | Some s -> s
        | None -> Signal.const ~width:ctx.aw 0
      in
      let valid =
        match valids.(r).(c) with Some v -> v | None -> Signal.gnd
      in
      let contribution = Pe_modules.tree_contribution ~valid ~contribution:prod in
      let events = events_of ctx p in
      let name = pos_name (access.Tl_ir.Access.tensor ^ "_ubank") p in
      let collector =
        make_collector ctx ~name ~capacity:(List.length events)
      in
      List.iter
        (fun ev ->
          collector.writes <-
            (ev.Schedule.cycle, out_elem ctx access ev) :: collector.writes)
        events;
      finalize_collector ctx name collector contribution)
    (active_pes ctx)

let build_output ctx (ti : Tl_stt.Design.tensor_info) ~prods ~valids =
  let access = ti.Tl_stt.Design.access in
  match ti.Tl_stt.Design.dataflow with
  | Tl_stt.Dataflow.Unicast -> build_unicast_output ctx access ~prods ~valids
  | Tl_stt.Dataflow.Stationary _ ->
    build_stationary_output ctx access ~prods ~valids
  | Tl_stt.Dataflow.Systolic { dp; dt } ->
    build_systolic_output ctx access ~dp ~dt ~prods ~valids
  | Tl_stt.Dataflow.Multicast { dp } ->
    build_multicast_output ctx access ~dp ~prods ~valids
  | Tl_stt.Dataflow.Reuse2d (Tl_stt.Dataflow.Multicast_stationary { multicast })
    ->
    build_multicast_stationary_output ctx access ~multicast ~prods ~valids
  | Tl_stt.Dataflow.Reuse2d Tl_stt.Dataflow.Broadcast
  | Tl_stt.Dataflow.Reuse2d (Tl_stt.Dataflow.Systolic_multicast _)
  | Tl_stt.Dataflow.Reuse_full ->
    raise
      (Unsupported
         (Printf.sprintf "output dataflow %s has no netlist template"
            (Tl_stt.Dataflow.to_string ti.Tl_stt.Design.dataflow)))

(* ------------------------------------------------------------------ *)

let generate ?(rows = 4) ?(cols = 4) ?(data_width = 16) ?(acc_width = 32)
    ?(harden = Harden.none) ?(counters = false) ?programmable design env =
  let sched =
    try Schedule.build design ~rows ~cols
    with Schedule.Unsupported msg -> raise (Unsupported msg)
  in
  let total =
    Layout.total_cycles ~compute_end:sched.Schedule.compute_end ~rows design
  in
  let mode : table_mode =
    match programmable with None -> `Rom | Some e -> `Prog e
  in
  (match mode with
   | `Rom -> ()
   | `Prog e ->
     if total > e.Layout.env_cycles then
       raise
         (Unsupported
            (Printf.sprintf
               "programmable envelope too small: schedule needs %d cycles, \
                capacity %d"
               total e.Layout.env_cycles));
     if sched.Schedule.passes > e.Layout.env_passes then
       raise
         (Unsupported
            (Printf.sprintf
               "programmable envelope too small: schedule needs %d passes, \
                capacity %d"
               sched.Schedule.passes e.Layout.env_passes)));
  let cw =
    match mode with
    | `Rom -> bits_for total
    | `Prog e -> bits_for e.Layout.env_cycles
  in
  let ctrl_mems = ref [] in
  let ctrl_table ~domain ~name ~width data =
    table_ram ~mode ~record:ctrl_mems ~domain ~name ~width data
  in
  let open Signal in
  (* controller: [creg] builds each state register, triplicated with a
     majority vote when TMR hardening is on — all copies latch the same
     next state computed from the voted feedback, so a single upset copy
     self-heals at the next edge *)
  let tmr_names = ref [] in
  let creg name ?enable d =
    if harden.Harden.tmr_controller then begin
      tmr_names := name :: !tmr_names;
      Harden.tmr_reg ~name ?enable d -- name
    end
    else reg ?enable d -- name
  in
  let cycle_w = wire cw in
  (* ROM mode derives [done]/[tick] from comparators against elaborated
     constants; programmable mode reads them from two 1-bit cycle-indexed
     descriptor streams, so reprogramming the streams retargets the
     controller without touching the netlist.  [done] saturates the cycle
     counter at its own assertion cycle, which keeps the counter off the
     zero padding past a program's natural length. *)
  let done_ =
    match mode with
    | `Rom -> eq cycle_w (const ~width:cw (total - 1)) -- "done"
    | `Prog _ ->
      let data = Array.make total 0 in
      data.(total - 1) <- 1;
      let m = ctrl_table ~domain:Layout.Cycle ~name:"ctrl_done" ~width:1 data in
      ram_read m cycle_w -- "done"
  in
  let cycle =
    creg "cycle_ctr" (mux2 done_ cycle_w (cycle_w +: const ~width:cw 1))
  in
  assign cycle_w cycle;
  let tick =
    match mode with
    | `Rom ->
      let preload_c = const ~width:cw sched.Schedule.preload in
      let compute_end_c = const ~width:cw sched.Schedule.compute_end in
      let compute_active =
        (ule preload_c cycle &: ult cycle compute_end_c) -- "compute_active"
      in
      let span = sched.Schedule.span in
      let ipw = bits_for span in
      let in_pass_w = wire ipw in
      let tick =
        (compute_active &: eq in_pass_w (const ~width:ipw (span - 1)))
        -- "tick"
      in
      let in_pass =
        creg "in_pass" ~enable:compute_active
          (mux2 tick (const ~width:ipw 0) (in_pass_w +: const ~width:ipw 1))
      in
      assign in_pass_w in_pass;
      tick
    | `Prog _ ->
      let data = Array.make total 0 in
      for p = 0 to sched.Schedule.passes - 1 do
        data.(sched.Schedule.preload + ((p + 1) * sched.Schedule.span) - 1) <-
          1
      done;
      let m = ctrl_table ~domain:Layout.Cycle ~name:"ctrl_tick" ~width:1 data in
      ram_read m cycle -- "tick"
  in
  let pw =
    match mode with
    | `Rom -> bits_for (sched.Schedule.passes + 1)
    | `Prog e -> bits_for (e.Layout.env_passes + 1)
  in
  let pass_w = wire pw in
  let pass_sig =
    creg "pass_ctr" ~enable:tick (pass_w +: const ~width:pw 1)
  in
  assign pass_w pass_sig;
  let stage_start = creg "stage_start" tick in
  let preload_tick = eq cycle (const ~width:cw 0) -- "preload_tick" in
  let stage_load = (preload_tick |: tick) -- "stage_load" in
  let stage_load_addr =
    mux2 preload_tick (const ~width:pw 0) (pass_w +: const ~width:pw 1)
    -- "stage_load_addr"
  in
  let dcw = bits_for (rows + 1) in
  let dc_w = wire dcw in
  let dc_nonzero = ne dc_w (const ~width:dcw 0) in
  let dc =
    creg "drain_ctr"
      (mux2 tick (const ~width:dcw rows)
         (mux2 dc_nonzero (dc_w -: const ~width:dcw 1) (const ~width:dcw 0)))
  in
  assign dc_w dc;
  let drain_shift = dc_nonzero -- "drain_shift" in
  let probe_addr = input "probe_addr" 16 in
  let ctx =
    { mode; prog_mems = !ctrl_mems;
      sched; dw = data_width; aw = acc_width; total; cw; cycle; tick;
      stage_start; stage_load; stage_load_addr; drain_shift; pass_sig;
      env; data_rams = Hashtbl.create 8; out_locs = Hashtbl.create 64;
      bank_list = []; probe_outputs = []; probe_addr; harden;
      parity_of_ram = Hashtbl.create 8; parity_pairs = [];
      parity_errs = []; tally_reads = Hashtbl.create 4;
      tally_sys_link = Array.make total 0;
      tally_mc_link = Array.make total 0; write_strobes = [] }
  in
  (* input tensors *)
  let inputs = Tl_stt.Design.input_infos design in
  let uses_per_tensor =
    List.map
      (fun ti ->
        let uses = zero_uses rows cols in
        build_input ctx ti uses;
        uses)
      inputs
  in
  (* validity + computation cell per active PE *)
  let prods = Array.init rows (fun _ -> Array.make cols None) in
  let valids = Array.init rows (fun _ -> Array.make cols None) in
  List.iter
    (fun p ->
      let r, c = p in
      let valid =
        bitmap_rom ctx (pos_name "valid" p)
          (List.map (fun ev -> ev.Schedule.cycle) (events_of ctx p))
      in
      let operand_signals =
        List.map
          (fun uses ->
            match uses.(r).(c) with
            | Some s -> s
            | None -> assert false (* every builder covers active PEs *))
          uses_per_tensor
      in
      let prod =
        match operand_signals with
        | [] -> assert false
        | first :: rest ->
          List.fold_left
            (fun acc s -> acc *: sresize s acc_width)
            (sresize first acc_width)
            rest
      in
      prods.(r).(c) <- Some (prod -- pos_name "prod" p);
      valids.(r).(c) <- Some valid)
    (active_pes ctx);
  (* output tensor *)
  build_output ctx (Tl_stt.Design.output_info design) ~prods ~valids;
  (* parity hardening: fold all comb parity-mismatch strobes into one
     sticky flag exported as [error_detected] *)
  let error_outputs =
    if not harden.Harden.parity_banks then []
    else begin
      let comb =
        match ctx.parity_errs with
        | [] -> gnd
        | e :: rest -> List.fold_left ( |: ) e rest
      in
      let sw = wire 1 in
      let sticky = reg (sw |: comb) -- "parity_sticky" in
      assign sw sticky;
      [ ("error_detected", (sticky |: comb) -- "error_detected") ]
    end
  in
  (* performance counters: synthesizable read-out ports, elaborated only
     on request so the default netlist stays bit-identical (the [~harden]
     discipline).  Every accumulator is enabled by [ctr_live] — a sticky
     not-finished flag — so each of the [total] live cycles is counted
     exactly once even though the bounded run settles the saturated
     terminal cycle twice. *)
  let counter_outputs =
    if not counters then []
    else begin
      let fw = wire 1 in
      let fin = reg (fw |: done_) -- "ctr_finished" in
      assign fw fin;
      let live = not_ fin -- "ctr_live" in
      let acc32 name inc =
        let w = wire 32 in
        let a = reg ~enable:live (w +: uresize inc 32) -- name in
        assign w a;
        (name, a)
      in
      let rom_counter name tally =
        let m = Array.fold_left max 1 tally in
        (* programmable variants fix the increment width at the whole-array
           bound (no per-cycle tally can exceed one count per PE), keeping
           it independent of the generating shape *)
        let w =
          match mode with
          | `Rom -> bits_for m
          | `Prog _ -> bits_for (max (rows * cols) m)
        in
        let rom =
          sched_table ctx ~domain:Layout.Cycle ~name:(name ^ "_inc") ~width:w
            tally
        in
        acc32 name (ram_read rom cycle)
      in
      (* MAC-enable popcount: the same per-PE valid bitmaps that gate the
         datapath feed a balanced adder tree *)
      let vs =
        List.filter_map (fun (r, c) -> valids.(r).(c)) (active_pes ctx)
      in
      let pcw = bits_for (List.length vs + 1) in
      let popcount =
        match vs with
        | [] -> const ~width:pcw 0
        | _ -> Reduce_tree.build (List.map (fun v -> uresize v pcw) vs)
      in
      let reads =
        Hashtbl.fold (fun t a acc -> (t, a) :: acc) ctx.tally_reads []
        |> List.sort compare
        |> List.map (fun (t, a) -> rom_counter ("ctr_rd_" ^ t) a)
      in
      let writes =
        List.rev ctx.write_strobes
        |> List.map (fun (n, we) -> acc32 ("ctr_wr_" ^ n) we)
      in
      (acc32 "ctr_cycles" vdd :: acc32 "ctr_active_pe_cycles" popcount
       :: reads)
      @ writes
      @ [ rom_counter "ctr_link_systolic" ctx.tally_sys_link;
          rom_counter "ctr_link_multicast" ctx.tally_mc_link ]
    end
  in
  let outputs =
    ("done", done_) :: ("cycle", cycle)
    :: ("pass", pass_sig)
    :: (error_outputs @ counter_outputs @ List.rev ctx.probe_outputs)
  in
  let circuit =
    Circuit.create ~name:("tensorlib_" ^ design.Tl_stt.Design.name) ~outputs
  in
  let prog =
    match mode with
    | `Rom -> None
    | `Prog e ->
      Some
        { pi_envelope = e;
          pi_structure =
            (Layout.build design ~rows ~cols).Layout.l_structure;
          pi_mems = List.rev ctx.prog_mems }
  in
  { design; rows; cols; data_width; acc_width; schedule = sched;
    circuit; total_cycles = total; out_locs = ctx.out_locs; prog;
    counter_ports = List.map fst counter_outputs;
    banks = List.rev ctx.bank_list;
    input_rams =
      Hashtbl.fold (fun name r acc -> (name, r) :: acc) ctx.data_rams []
      |> List.sort compare;
    hardening =
      { Harden.config = harden;
        tmr_regs = List.rev !tmr_names;
        parity_pairs = List.rev ctx.parity_pairs } }

let planned_cycles t = t.total_cycles + 1

let read_counters t sim =
  List.map (fun name -> (name, Sim.output sim name)) t.counter_ports

let read_output_lane t sim lane =
  let stmt = t.design.Tl_stt.Design.transform.Tl_stt.Transform.stmt in
  let out = Tl_ir.Exec.alloc_output stmt in
  let contents = Hashtbl.create 8 in
  List.iter
    (fun (_, bank) ->
      Hashtbl.replace contents bank.Signal.ram_id
        (Sim.ram_contents_lane sim lane bank))
    t.banks;
  Hashtbl.iter
    (fun idx ((bank : Signal.ram), addr) ->
      let data = Hashtbl.find contents bank.Signal.ram_id in
      Tl_ir.Dense.set out (Array.of_list idx)
        (Signal.to_signed t.acc_width data.(addr)))
    t.out_locs;
  out

let read_output t sim = read_output_lane t sim 0

(* Flatten the golden output into raw (bank, addr, expected) triples so a
   fault campaign can test "lane output = golden" with single-cell reads —
   no ram copies, no Dense allocation per lane.  The expected value is the
   signed view, mirroring [read_output_lane] exactly. *)
let golden_cells (t : t) golden =
  Hashtbl.fold
    (fun idx ((bank : Signal.ram), addr) acc ->
      (bank, addr, Tl_ir.Dense.get golden (Array.of_list idx)) :: acc)
    t.out_locs []

let output_equal_lane t sim lane cells =
  List.for_all
    (fun ((bank : Signal.ram), addr, expect) ->
      Signal.to_signed t.acc_width (Sim.ram_cell_lane sim lane bank addr)
      = expect)
    cells

(* Pre-resolved form of [output_equal_lane], bound to one simulator:
   bank slots are looked up once, so the per-lane check is just array
   reads and compares. *)
let output_checker (t : t) sim cells =
  let prepared =
    List.map
      (fun ((bank : Signal.ram), addr, expect) ->
        (Sim.ram_reader sim bank, addr, expect))
      cells
  in
  let width = t.acc_width in
  fun lane ->
    List.for_all
      (fun (read, addr, expect) ->
        Signal.to_signed width (read lane addr) = expect)
      prepared

(* Watchdog: the schedule is finite, so the run is bounded by
   construction — but a corrupted (or malformed) controller can fail to
   reach the terminal count, in which case the outputs are meaningless.
   The [done] flag is asserted iff the cycle counter reached its
   terminal value, so checking it after the bounded run classifies a
   wedged controller as a timeout instead of returning garbage. *)
let check_done t sim =
  (* every lane's controller must have reached the terminal count — on a
     batch simulator one wedged trial fails the whole call, matching the
     per-trial semantics a scalar loop over the same trials would have *)
  let all_done =
    match Sim.backend sim with
    | `Tape | `Closure -> Sim.output sim "done" = 1
    | `Batch ->
      let l = Sim.lanes sim in
      let full = if l >= Sim.max_lanes then max_int else (1 lsl l) - 1 in
      Sim.output_packed sim "done" = full
  in
  if not all_done then
    raise
      (Simulation_timeout
         { design = t.design.Tl_stt.Design.name;
           cycles = Sim.cycle_count sim })

let bounded_cycles ?max_cycles t =
  match max_cycles with
  | None -> planned_cycles t
  | Some m ->
    if m < 1 then invalid_arg "Accel: max_cycles must be >= 1";
    min m (planned_cycles t)

let run_sim ?max_cycles t sim =
  Sim.cycles sim (bounded_cycles ?max_cycles t);
  check_done t sim;
  read_output t sim

let execute ?backend ?max_cycles t =
  run_sim ?max_cycles t (Sim.create ?backend t.circuit)

(* Programmable netlists size their data memories to the capacity
   envelope, so the generating workload's tensors occupy a prefix; the
   tail stays zero (exactly what [generate] baked into the init image).
   ROM netlists keep the historical exact-size contract. *)
let env_image t name (ram : Signal.ram) dense =
  let n = Tl_ir.Dense.size dense in
  let ok = n = ram.Signal.size || (t.prog <> None && n < ram.Signal.size) in
  if not ok then invalid_arg ("Accel.load_env: shape mismatch for " ^ name);
  Array.init n (Tl_ir.Dense.flat_get dense)

let load_env_lane t sim lane env =
  List.iter
    (fun (name, ram) ->
      match List.assoc_opt name env with
      | None -> invalid_arg ("Accel.load_env: missing tensor " ^ name)
      | Some dense ->
        Sim.load_ram_prefix_lane sim lane ram (env_image t name ram dense))
    t.input_rams

let load_env t sim env =
  List.iter
    (fun (name, ram) ->
      match List.assoc_opt name env with
      | None -> invalid_arg ("Accel.load_env: missing tensor " ^ name)
      | Some dense ->
        Sim.load_ram_prefix sim ram (env_image t name ram dense))
    t.input_rams

let execute_with ?backend ?max_cycles t env =
  let sim = Sim.create ?backend t.circuit in
  load_env t sim env;
  run_sim ?max_cycles t sim

(* One bit-sliced pass over up to [Sim.max_lanes] independent input
   environments: results arrive in input order, each bit-identical to a
   scalar [execute_with] on that environment. *)
let execute_batch ?max_cycles t envs =
  let n = List.length envs in
  if n < 1 then invalid_arg "Accel.execute_batch: no environments";
  if n > Sim.max_lanes then
    invalid_arg
      (Printf.sprintf "Accel.execute_batch: %d environments > %d lanes" n
         Sim.max_lanes);
  let sim = Sim.create ~backend:`Batch ~lanes:n t.circuit in
  List.iteri (fun lane env -> load_env_lane t sim lane env) envs;
  Sim.cycles sim (bounded_cycles ?max_cycles t);
  check_done t sim;
  List.mapi (fun lane _ -> read_output_lane t sim lane) envs

(* ------------------------------------------------------------------ *)
(* Runtime programming: load a compiled program (descriptor images +
   data layout, see Tl_compile) into a live simulator of a programmable
   netlist.  Validation is strict — a program that names an unknown
   memory, overflows a capacity, or carries a value wider than the
   generated port raises [Bad_program] before anything is written. *)

let prog_info t =
  match t.prog with
  | Some pi -> pi
  | None -> raise (Bad_program "target accelerator is not programmable")

let parity_companion t (ram : Signal.ram) =
  List.find_opt
    (fun ((r : Signal.ram), _) -> r.Signal.ram_id = ram.Signal.ram_id)
    t.hardening.Harden.parity_pairs
  |> Option.map snd

let load_program t sim (p : Layout.program) env =
  let pi = prog_info t in
  if p.Layout.p_structure <> pi.pi_structure then
    raise (Bad_program "program structure does not match the target netlist");
  (* reset FIRST: it restores every ram's init image (banks to zero,
     descriptors to the generating shape), which the loads below then
     overwrite — the reverse order would wipe the program *)
  Sim.reset sim;
  (* every descriptor memory of the target must receive an image; images
     for memories the target did not elaborate (e.g. counter increments
     on a counters-off netlist) are simply unused *)
  let images = p.Layout.p_images in
  List.iter
    (fun (name, (ram : Signal.ram)) ->
      match List.assoc_opt name images with
      | None -> raise (Bad_program ("program missing image for " ^ name))
      | Some (_, img) ->
        let n = Array.length img in
        if n > ram.Signal.size then
          raise
            (Bad_program
               (Printf.sprintf
                  "image %s: %d entries exceed memory capacity %d" name n
                  ram.Signal.size));
        let lim =
          if ram.Signal.ram_width >= Sys.int_size - 1 then max_int
          else 1 lsl ram.Signal.ram_width
        in
        Array.iter
          (fun v ->
            if v < 0 || v >= lim then
              raise
                (Bad_program
                   (Printf.sprintf
                      "image %s: value %d overflows the %d-bit port" name v
                      ram.Signal.ram_width)))
          img;
        Sim.load_ram_prefix sim ram img)
    pi.pi_mems;
  (* input tensors: prefix-load each at the program's layout, zero tail *)
  List.iter
    (fun (inp : Layout.input) ->
      let ram =
        match List.assoc_opt inp.Layout.in_mem t.input_rams with
        | Some r -> r
        | None ->
          raise
            (Bad_program
               ("program names unknown data memory " ^ inp.Layout.in_mem))
      in
      let dense =
        match List.assoc_opt inp.Layout.in_tensor env with
        | Some d -> d
        | None ->
          invalid_arg
            ("Accel.load_program: missing tensor " ^ inp.Layout.in_tensor)
      in
      if Tl_ir.Dense.size dense <> inp.Layout.in_elems then
        invalid_arg
          ("Accel.load_program: shape mismatch for " ^ inp.Layout.in_tensor);
      if inp.Layout.in_elems > ram.Signal.size then
        raise
          (Bad_program
             (Printf.sprintf "tensor %s: %d elements exceed data memory %d"
                inp.Layout.in_tensor inp.Layout.in_elems ram.Signal.size));
      let data =
        Array.init inp.Layout.in_elems (Tl_ir.Dense.flat_get dense)
      in
      Sim.load_ram_prefix sim ram data;
      (* keep the parity companion coherent on hardened variants, or the
         first read would trip error_detected; the zero tail has parity 0,
         which a prefix load leaves in place *)
      match parity_companion t ram with
      | None -> ()
      | Some pram ->
        Sim.load_ram_prefix sim pram
          (Array.map (fun v -> Harden.parity_bit (v land ((1 lsl t.data_width) - 1))) data))
    p.Layout.p_inputs

let read_program_output t sim (p : Layout.program) =
  let out = Tl_ir.Dense.create p.Layout.p_out_shape in
  let contents = Hashtbl.create 8 in
  List.iter
    (fun (name, bank) ->
      Hashtbl.replace contents name (Sim.ram_contents_lane sim 0 bank))
    t.banks;
  List.iter
    (fun (idx, (bname, addr)) ->
      match Hashtbl.find_opt contents bname with
      | None -> raise (Bad_program ("program references unknown bank " ^ bname))
      | Some data ->
        if addr < 0 || addr >= Array.length data then
          raise
            (Bad_program
               (Printf.sprintf "program bank address %d out of range for %s"
                  addr bname));
        Tl_ir.Dense.set out (Array.of_list idx)
          (Signal.to_signed t.acc_width data.(addr)))
    p.Layout.p_out;
  out

let execute_program ?backend ?max_cycles ?sim t (p : Layout.program) env =
  let sim =
    match sim with Some s -> s | None -> Sim.create ?backend t.circuit
  in
  load_program t sim p env;
  let planned = p.Layout.p_total + 1 in
  let n =
    match max_cycles with
    | None -> planned
    | Some m ->
      if m < 1 then invalid_arg "Accel: max_cycles must be >= 1";
      min m planned
  in
  Sim.cycles sim n;
  check_done t sim;
  read_program_output t sim p

let verilog t = Verilog.to_string t.circuit

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let verilog_testbench t ~expected =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let module_name = sanitize (Circuit.name t.circuit) in
  add "`timescale 1ns/1ps\n";
  add "module %s_tb;\n" module_name;
  add "  reg clock = 0;\n";
  add "  reg [15:0] probe_addr = 0;\n";
  List.iter
    (fun (name, (s : Signal.t)) ->
      if s.Signal.width = 1 then add "  wire %s;\n" (sanitize name)
      else add "  wire [%d:0] %s;\n" (s.Signal.width - 1) (sanitize name))
    (Circuit.outputs t.circuit);
  add "  %s dut(.clock(clock), .probe_addr(probe_addr)" module_name;
  List.iter
    (fun (name, _) ->
      let n = sanitize name in
      add ", .%s(%s)" n n)
    (Circuit.outputs t.circuit);
  add ");\n";
  add "  always #5 clock = ~clock;\n";
  add "  integer errors = 0;\n";
  add "  initial begin\n";
  add "    repeat (%d) @(posedge clock);\n" (t.total_cycles + 2);
  (* bank name lookup by ram id *)
  let name_of_bank =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (name, (r : Signal.ram)) ->
        Hashtbl.replace tbl r.Signal.ram_id name)
      t.banks;
    fun (r : Signal.ram) -> Hashtbl.find tbl r.Signal.ram_id
  in
  let checks =
    Hashtbl.fold (fun idx (bank, addr) acc -> (idx, bank, addr) :: acc)
      t.out_locs []
    |> List.sort compare
  in
  List.iter
    (fun (idx, bank, addr) ->
      let probe = sanitize (name_of_bank bank ^ "_probe") in
      let value = Tl_ir.Dense.get expected (Array.of_list idx) in
      add "    probe_addr = %d; #1;\n" addr;
      add
        "    if ($signed(%s) !== %d) begin errors = errors + 1;          $display(\"MISMATCH %s[%d]: got %%0d, want %d\", $signed(%s));          end\n"
        probe value probe addr value probe)
    checks;
  add "    if (errors == 0) $display(\"PASS: %d output elements match\");\n"
    (List.length checks);
  add "    else $display(\"FAIL: %%0d mismatches\", errors);\n";
  add "    $finish;\n";
  add "  end\n";
  add "endmodule\n";
  Buffer.contents b
