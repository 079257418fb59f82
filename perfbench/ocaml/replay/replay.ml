(* In-process half of the benchmark driven by perfbench/run.py.

   Two jobs, one subcommand per workload:
   - output checks that need the library (program documents decode, the
     in-process sweep digest, the in-process batch campaign and its tape
     replay);
   - with --trace, the traced replay: the workload's inputs re-run
     in-process, with every call into a layer's public function timed
     here, from outside lib/, together with its minor-heap allocation.

   Prints one JSON object on stdout:
   {"checks": {name: bool}, "metrics": {name: number}, "info": {...}}. *)

open Tensorlib

(* ------------------------------------------------------------------ *)
(* Layer timers *)

type timer = { mutable calls : int; mutable secs : float; mutable words : float }

let timers : (string * timer) list ref = ref []

let timer name =
  match List.assoc_opt name !timers with
  | Some t -> t
  | None ->
    let t = { calls = 0; secs = 0.; words = 0. } in
    timers := !timers @ [ (name, t) ];
    t

(* [Gc.minor_words] is exact but counts the calling domain only.  A call
   that fans out over the Tl_par pool ([~pool:true]) is measured with
   [Gc.quick_stat] instead, which folds in the joined worker domains but
   counts the calling domain only up to its last minor collection, so a
   minor collection is forced (untimed) on both sides of such a call. *)
let time ?(pool = false) name f =
  let t = timer name in
  let words () =
    if pool then begin
      Gc.minor ();
      (Gc.quick_stat ()).Gc.minor_words
    end
    else Gc.minor_words ()
  in
  let w0 = words () in
  let t0 = Unix.gettimeofday () in
  Fun.protect f ~finally:(fun () ->
      t.secs <- t.secs +. (Unix.gettimeofday () -. t0);
      t.words <- t.words +. (words () -. w0);
      t.calls <- t.calls + 1)

let busy () = List.fold_left (fun a (_, t) -> a +. t.secs) 0. !timers

(* Per timer: [<name>_ms], busy time per replayed unit of work, and
   [<name>_words], minor words per call. *)
let timer_metrics ~units =
  List.concat_map
    (fun (name, t) ->
      [ (name ^ "_ms", 1000. *. t.secs /. float_of_int units);
        ( name ^ "_words",
          if t.calls = 0 then 0. else t.words /. float_of_int t.calls ) ])
    !timers

(* ------------------------------------------------------------------ *)
(* The benchmark's fixed configuration.  run.py takes the CLI arguments
   from [info] below, so the CLI and the replay cannot drift apart. *)

let rows = 4
let cols = 4

(* serve-einsum: the standing target of [serve --accel-workload] *)
let serve_workload = "gemm-small"
let serve_dataflow = "MNK-SST"
let headroom = 4

(* sweep-cold *)
let network = "tiny"

(* fault-campaign *)
let fault_workload = "conv2d-small"
let fault_dataflow = "KCX-SST"
let fault_trials = 10_000
let tape_trials = 300

(* the two entries of the CLI's workload table (bin/tensorlib_cli.ml)
   named above *)
let serve_stmt () = Workloads.gemm ~m:4 ~n:4 ~k:4
let fault_stmt () = Workloads.conv2d ~k:4 ~c:4 ~y:4 ~x:4 ~p:3 ~q:3

let cli_args =
  let r = string_of_int rows and c = string_of_int cols in
  [ ( "serve",
      [ "serve"; "--accel-workload"; serve_workload; "--accel-dataflow"; serve_dataflow;
        "--accel-rows"; r; "--accel-cols"; c; "--headroom"; string_of_int headroom ] );
    ("sweep", [ "sweep"; "-n"; network; "--json" ]);
    ( "fault",
      [ "fault"; "-w"; fault_workload; "-d"; fault_dataflow; "--rows"; r; "--cols"; c;
        "--harden"; "full"; "--backend"; "batch"; "--json" ] ) ]

(* ------------------------------------------------------------------ *)
(* Arguments and output *)

let args =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | a :: _ -> failwith ("replay: unexpected argument " ^ a)
  in
  match Array.to_list Sys.argv with
  | _ :: cmd :: rest -> (cmd, go [] rest)
  | _ -> failwith "usage: replay.exe (info|serve|sweep|fault) --key value ..."

let arg name =
  match List.assoc_opt name (snd args) with
  | Some v -> v
  | None -> failwith ("replay: missing --" ^ name)

let int_arg name = int_of_string (arg name)
let traced () = List.assoc_opt "trace" (snd args) = Some "1"

let emit ~checks ~metrics ~info =
  let num (k, v) = (k, Json.Num v) in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("checks", Json.Obj (List.map (fun (k, b) -> (k, Json.Bool b)) checks));
            ("metrics", Json.Obj (List.map num metrics));
            ("info", Json.Obj info) ]))

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let find_design stmt name =
  match Search.find_design stmt name with
  | Some d -> d
  | None -> failwith ("replay: dataflow not realisable: " ^ name)

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")

(* ------------------------------------------------------------------ *)
(* serve-einsum *)

(* The standing target of [serve --accel-workload]: descriptor memories
   sized to [headroom] times the generating design's own schedule (the
   construction in bin/tensorlib_cli.ml, which is not a library). *)
let programmable_target () =
  let stmt = serve_stmt () in
  let design = find_design stmt serve_dataflow in
  let l = Layout.build design ~rows ~cols in
  let nat_elems =
    List.fold_left (fun a (i : Layout.input) -> max a i.Layout.in_elems) 1
      l.Layout.l_inputs
  in
  let nat_bank = List.fold_left (fun a (_, cap, _) -> max a cap) 1 l.Layout.l_banks in
  let envelope =
    { Layout.env_cycles = headroom * l.Layout.l_total;
      env_passes = headroom * l.Layout.l_passes;
      env_elems = headroom * nat_elems;
      env_bank = headroom * nat_bank }
  in
  Accel.generate ~rows ~cols ~data_width:16 ~acc_width:32
    ~programmable:envelope design (Exec.alloc_inputs stmt)

let extents_of_string s =
  List.map
    (fun kv ->
      match String.split_on_char '=' kv with
      | [ k; v ] -> (String.trim k, int_of_string (String.trim v))
      | _ -> failwith ("replay: bad extent binding " ^ kv))
    (String.split_on_char ',' s)

let error_name = function
  | Compile.Not_programmable -> "Not_programmable"
  | Compile.Unsupported_design _ -> "Unsupported_design"
  | Compile.Tensor_mismatch _ -> "Tensor_mismatch"
  | Compile.Dataflow_mismatch _ -> "Dataflow_mismatch"
  | Compile.Structure_mismatch -> "Structure_mismatch"
  | Compile.Capacity_exceeded _ -> "Capacity_exceeded"
  | Compile.Width_overflow _ -> "Width_overflow"

(* Every ok reply's program document must decode. *)
let check_replies path =
  let decoded = ref 0 and bad = ref 0 in
  List.iter
    (fun line ->
      match Json.parse line with
      | Ok reply when Json.member "ok" reply = Some (Json.Bool true) -> (
        let doc = Option.map Json.to_string (Json.member "program" reply) in
        match Option.map Compile.program_of_json doc with
        | Some (Ok p) when Some p.Layout.p_name = Json.mem_string reply "design" ->
          incr decoded
        | _ -> incr bad)
      | _ -> ())
    (read_lines path);
  (!decoded, !bad)

let replay_serve ~target corpus =
  let sim = Sim.create target.Accel.circuit in
  let rows = target.Accel.rows and cols = target.Accel.cols in
  let n = List.length corpus in
  let candidates = ref 0 and attempts = ref 0 and compiled = ref 0 in
  let rejects = Hashtbl.create 8 in
  let cycles = ref 0 and cycle_err = ref 0. and mismatches = ref 0 in
  let serve_one line =
    let req =
      match time "json.parse" (fun () -> Json.parse line) with
      | Ok r -> r
      | Error e -> failwith ("replay: corpus line is not JSON: " ^ e)
    in
    let field k = Option.get (Json.mem_string req k) in
    let extents = extents_of_string (field "extents") in
    let formula = field "einsum" in
    let stmt = time "ir.parse" (fun () -> Parse.stmt formula ~extents) in
    let cands = time "stt.search" (fun () -> Search.all_designs stmt) in
    candidates := !candidates + List.length cands;
    (* [Compile.find_design], one timed call per candidate *)
    let rec first errs = function
      | [] -> Error (List.rev errs)
      | (name, design) :: rest -> (
        incr attempts;
        match time "compile.compile" (fun () -> Compile.compile ~target design) with
        | Ok p -> Ok (design, p)
        | Error e ->
          let k = error_name e in
          Hashtbl.replace rejects k (1 + Option.value ~default:0 (Hashtbl.find_opt rejects k));
          first ((name, e) :: errs) rest)
    in
    let id = Option.value (Json.member "id" req) ~default:Json.Null in
    match first [] cands with
    | Error rejections ->
      ignore
        (time "compile.encode" (fun () ->
             let head =
               match rejections with
               | (name, e) :: _ -> Printf.sprintf " (%s: %s)" name (Compile.error_to_string e)
               | [] -> ""
             in
             Json.to_string
               (Json.Obj
                  [ ("id", id); ("ok", Json.Bool false);
                    ("error",
                     Json.Str
                       (Printf.sprintf "%d candidates rejected%s"
                          (List.length rejections) head)) ])))
    | Ok (design, program) ->
      incr compiled;
      let env, golden =
        time "ir.golden" (fun () ->
            let env = Exec.alloc_inputs stmt in
            (env, Exec.run stmt env))
      in
      time "templates.load" (fun () -> Accel.load_program target sim program env);
      let got =
        time "hw.sim" (fun () ->
            Sim.cycles sim (program.Layout.p_total + 1);
            Accel.check_done target sim;
            Accel.read_program_output target sim program)
      in
      let simulated = Sim.cycle_count sim in
      cycles := !cycles + simulated;
      let verified = time "ir.verify" (fun () -> Dense.equal got golden) in
      let est =
        time "perf.estimate" (fun () -> Perf.estimate_program ~rows ~cols program)
      in
      cycle_err :=
        !cycle_err
        +. Float.abs (float_of_int (est.Perf.pe_cycles - simulated))
           /. float_of_int simulated;
      ignore
        (time "compile.encode" (fun () ->
             let doc =
               match Json.parse (Compile.program_to_json program) with
               | Ok j -> j
               | Error _ -> Json.Null
             in
             Json.to_string
               (Json.Obj
                  [ ("id", id); ("ok", Json.Bool true);
                    ("design", Json.Str design.Design.name);
                    ("verified", Json.Bool verified);
                    ("cycles", Json.Num (float_of_int est.Perf.pe_cycles));
                    ("macs", Json.Num (float_of_int est.Perf.pe_macs));
                    ("program", doc) ])));
      (* untimed: the split load / cycle / read path must reproduce the
         library's own one-call execution *)
      let reference = Accel.execute_program ~sim target program env in
      if not (verified && Dense.equal got reference) then incr mismatches
  in
  let (), wall_s = wall (fun () -> List.iter serve_one corpus) in
  let per_req x = float_of_int x /. float_of_int n in
  let sim_s = (timer "hw.sim").secs in
  let metrics =
    timer_metrics ~units:n
    @ [ ("stt.candidates_per_req", per_req !candidates);
        ("compile.attempts_per_req", per_req !attempts);
        ("compile.accept_ratio",
         if !attempts = 0 then 0. else float_of_int !compiled /. float_of_int !attempts);
        ("hw.sim_cycles_per_s",
         if sim_s > 0. then float_of_int !cycles /. sim_s else 0.);
        ("perf.estimate_cycle_error",
         if !compiled = 0 then 0. else !cycle_err /. float_of_int !compiled);
        ("coverage", busy () /. wall_s);
        ("replay.unit_ms", 1000. *. wall_s /. float_of_int n) ]
    @ Hashtbl.fold (fun k c acc -> ("compile.reject." ^ k, per_req c) :: acc) rejects []
  in
  (metrics, !mismatches, !compiled)

let serve () =
  let corpus = read_lines (arg "corpus") in
  let decoded, bad = check_replies (arg "replies") in
  let checks = [ ("programs_decode", bad = 0) ] in
  let info = [ ("programs_decoded", Json.Num (float_of_int decoded)) ] in
  if not (traced ()) then emit ~checks ~metrics:[] ~info
  else begin
    let metrics, mismatches, compiled = replay_serve ~target:(programmable_target ()) corpus in
    emit
      ~checks:(checks @ [ ("replay_matches_execute_program", mismatches = 0) ])
      ~metrics
      ~info:(info @ [ ("replay_compiled", Json.Num (float_of_int compiled)) ])
  end

(* ------------------------------------------------------------------ *)
(* sweep-cold *)

let unique_shapes ~config layers =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (_, stmt) ->
      let key = Network.shape_key ~config stmt in
      if Hashtbl.mem seen key then None
      else begin
        Hashtbl.add seen key ();
        Some (key, stmt)
      end)
    layers

(* One cold sweep, single-domain, shape by shape as [Network.sweep] does
   it, then a warm pass over the same fresh on-disk store. *)
let replay_sweep ~store_dir layers =
  let config = Perf.default_config in
  let store = Store.open_store ~root:store_dir () in
  Perf.reset_counters ();
  let points = ref 0 and failed = ref 0 in
  let shapes = unique_shapes ~config layers in
  let sweep_cold () =
    List.map
      (fun (key, stmt) ->
        (match time "store.find" (fun () -> Store.find store key) with
         | None -> ()
         | Some _ -> failwith "replay: fresh store already holds a shape");
        let pts =
          time "dse.enumerate" (fun () -> Enumerate.design_space ~domains:1 stmt)
        in
        points := !points + List.length pts;
        let evaluated =
          List.filter_map
            (fun (p : Enumerate.point) ->
              match
                time "perf.evaluate" (fun () -> Perf.evaluate ~config p.Enumerate.design)
              with
              | exception Invalid_argument _ -> incr failed; None
              | perf ->
                let asic =
                  time "cost.asic" (fun () ->
                      Asic.evaluate ~rows:config.Perf.rows ~cols:config.Perf.cols
                        p.Enumerate.design)
                in
                Some
                  { Network.p_area = asic.Asic.area; p_power = asic.Asic.power_mw;
                    p_perf = perf })
            pts
        in
        let payload = time "dse.encode" (fun () -> Network.encode_points evaluated) in
        time "store.put" (fun () -> Store.put store key payload);
        (match time "dse.decode" (fun () -> Network.decode_points payload) with
         | Some decoded ->
           ignore
             (time "dse.pareto" (fun () ->
                  Enumerate.pareto_min
                    (fun (p : Network.point) -> (p.Network.p_perf.Perf.cycles, p.Network.p_power))
                    decoded))
         | None -> failwith "replay: payload does not decode");
        payload)
      shapes
  in
  let (payloads, warm_ok), wall_s =
    wall (fun () ->
        let payloads = sweep_cold () in
        let warm_ok =
          List.for_all2
            (fun (key, _) payload ->
              match time "store.find" (fun () -> Store.find store key) with
              | Some p when p = payload ->
                time "dse.decode" (fun () -> Network.decode_points p) <> None
              | _ -> false)
            shapes payloads
        in
        (payloads, warm_ok))
  in
  let digest = Signature.key_digest (String.concat "" payloads) in
  let stats = Store.stats store in
  let counter k = float_of_int (Option.value ~default:0 (List.assoc_opt k (Perf.counters ()))) in
  let metrics =
    timer_metrics ~units:1
    @ [ ("dse.points", float_of_int !points);
        ("perf.evaluate_failed", float_of_int !failed);
        ("perf.tile_nodes", counter "tile_nodes");
        ("perf.tiles_evaluated", counter "tiles_evaluated");
        ("store.hits", float_of_int stats.Par.Cache.hits);
        ("store.misses", float_of_int stats.Par.Cache.misses);
        ("coverage", busy () /. wall_s);
        ("replay.unit_ms", 1000. *. wall_s) ]
  in
  (metrics, digest, warm_ok)

let sweep_once ~domains ~name layers =
  Par.Cache.clear_all ();
  wall (fun () -> Network.sweep ~domains ~store:(Store.open_store ()) ~name layers)

let sweep () =
  let name = network in
  let layers =
    match List.assoc_opt name (Network.networks ()) with
    | Some l -> l
    | None -> failwith ("replay: unknown network " ^ name)
  in
  let replay = if traced () then Some (replay_sweep ~store_dir:(arg "store") layers) else None in
  let one, t1 = sweep_once ~domains:1 ~name layers in
  let info =
    [ ("digest", Json.Str one.Network.r_digest);
      ("points", Json.Num (float_of_int one.Network.r_points)) ]
  in
  match replay with
  | None -> emit ~checks:[ ("complete", one.Network.r_complete) ] ~metrics:[] ~info
  | Some (metrics, digest, warm_ok) ->
    let width = Par.n_domains () in
    let wide, tn = sweep_once ~domains:width ~name layers in
    emit
      ~checks:
        [ ("complete", one.Network.r_complete);
          ("replay_digest", digest = one.Network.r_digest);
          ("pool_digest", wide.Network.r_digest = one.Network.r_digest);
          ("warm_pass", warm_ok) ]
      ~metrics:(metrics @ [ ("par.speedup", t1 /. tn) ])
      ~info

(* ------------------------------------------------------------------ *)
(* fault-campaign *)

let fault () =
  let trials = fault_trials in
  let stmt = fault_stmt () in
  let generate harden design env =
    Accel.generate ~rows ~cols ~data_width:16 ~acc_width:32 ~harden design env
  in
  let config =
    { Campaign.default_config with trials; seed = int_arg "seed"; backend = `Batch }
  in
  let (acc, report), wall_s =
    wall (fun () ->
        let env, _golden =
          time "ir.golden" (fun () ->
              let env = Exec.alloc_inputs stmt in
              (env, Exec.run stmt env))
        in
        let design = time "stt.search" (fun () -> find_design stmt fault_dataflow) in
        let acc = time "templates.generate" (fun () -> generate Harden.full design env) in
        let report = time ~pool:true "fault.campaign" (fun () -> Campaign.run ~config acc) in
        let base = time "templates.generate_base" (fun () -> generate Harden.none design env) in
        List.iter
          (fun (a : Accel.t) ->
            ignore (time "cost.netlist" (fun () -> Asic.evaluate_netlist a.Accel.circuit)))
          [ base; acc ];
        (acc, report))
  in
  (* the scalar tape must reproduce the batch outcomes trial for trial *)
  let head = List.filteri (fun i _ -> i < tape_trials) report.Campaign.results in
  let tape =
    Campaign.run_faults ~config:{ config with backend = `Tape } acc
      (List.map (fun (t : Campaign.trial) -> t.Campaign.fault) head)
  in
  let tape_mismatches =
    List.fold_left2
      (fun n (a : Campaign.trial) (b : Campaign.trial) ->
        if a.Campaign.outcome = b.Campaign.outcome then n else n + 1)
      0 head tape.Campaign.results
  in
  let counts =
    [ ("masked", report.Campaign.masked); ("sdc", report.Campaign.sdc);
      ("detected", report.Campaign.detected); ("hang", report.Campaign.hang) ]
  in
  let checks =
    [ ("counts_sum", List.fold_left (fun a (_, c) -> a + c) 0 counts = trials);
      ("tape_replay", tape_mismatches = 0 && List.length head > 0) ]
  in
  let info =
    List.map (fun (k, c) -> (k, Json.Num (float_of_int c))) counts
    @ [ ("tape_trials", Json.Num (float_of_int (List.length head))) ]
  in
  if not (traced ()) then emit ~checks ~metrics:[] ~info
  else begin
    let (_ : Campaign.report), t1 =
      wall (fun () -> Campaign.run ~config:{ config with domains = Some 1 } acc)
    in
    let metrics =
      timer_metrics ~units:1
      @ List.map (fun (k, c) -> ("fault." ^ k, float_of_int c)) counts
      @ [ ("par.speedup", t1 /. (timer "fault.campaign").secs);
          ("coverage", busy () /. wall_s);
          ("replay.unit_ms", 1000. *. wall_s /. float_of_int trials) ]
    in
    emit ~checks ~metrics ~info
  end

let () =
  match fst args with
  | "serve" -> serve ()
  | "sweep" -> sweep ()
  | "fault" -> fault ()
  | "info" ->
    emit ~checks:[] ~metrics:[]
      ~info:
        [ ("ocaml", Json.Str Sys.ocaml_version);
          ("word_bytes", Json.Num (float_of_int (Sys.word_size / 8)));
          ("pool_width", Json.Num (float_of_int (Par.n_domains ())));
          ("fault_trials", Json.Num (float_of_int fault_trials));
          ( "cli_args",
            Json.Obj
              (List.map
                 (fun (k, a) -> (k, Json.List (List.map (fun x -> Json.Str x) a)))
                 cli_args) ) ]
  | c -> failwith ("replay: unknown subcommand " ^ c)
