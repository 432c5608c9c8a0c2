(* The tick benchmark: one workload, one seed, one closed loop.

     tickbench --workload NAME --seed N --seconds S --trace 0|1

   One process drives one simulation tick after tick with no external
   requests.  Everything runs on one domain except the [parallel2] backend
   replay of the traced run.

   --trace 0 (end to end): the engine as battle_sim runs it by default —
   indexed evaluator, optimizer, cross-tick index cache and columnar
   mirror on, fault policy Fail — plus what a long-running server arms:
   the journal with a checkpoint generation every 50 ticks (fsync off: the
   benchmark measures the engine, not the disk under it) and a flight
   recorder of capacity 1024 as the observer.  Set-up (input generation,
   [Simulation.create], arming persistence, warm-up ticks) runs several
   times and reports the median; the timed window then steps the last
   simulation.  Afterwards the layered driver re-executes the ticks since
   the engine's newest checkpoint generation, and its digests, the final
   one included, must equal the engine's.

   --trace 1 (per layer): the engine runs a window untraced, then the
   layered driver ([Driver]) runs the same ticks from the inputs with every
   layer call inside a span, and each backend (indexed, fused, parallel2,
   plus naive where it fits) replays the first ticks.  Every tick's digest
   must agree with the engine's.  The layered run's spans are written as a
   Chrome trace to [trace_file].

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  [attempted] counts the
   measured ticks and [failed] those that raised or whose digest disagreed
   with the reference, so [failed / attempted] is the failed-tick share. *)

open Sgl
module Flight = Obs.Flight

(* The first ticks and their cold index builds; on battle-12k the armies
   meet during them, so every timed tick has deaths. *)
let warmup_ticks = 5
let min_ticks = 100 (* p90 needs ten samples beyond it *)
let setup_runs = 3
let replay_ticks = 5
let checkpoint_every = 50
let flight_capacity = 1024
let trace_file = Filename.concat "perfbench" "trace.json"

(* Journals and checkpoints of a run, removed when it ends. *)
let state_dir = Filename.concat "perfbench" ".state"

(* The default seed and the seed held out for confirming later claims. *)
let default_seed = 1
let held_out_seed = 2007

let pr fmt = Printf.printf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Small helpers *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir path =
  rm_rf path;
  let rec mk p =
    if not (Sys.file_exists p) then begin
      mk (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  mk path;
  path

(* Nearest-rank percentile of unsorted samples. *)
let percentile (xs : float array) (p : float) : float =
  let s = Array.copy xs in
  Array.sort compare s;
  let n = Array.length s in
  s.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median xs = percentile (Array.of_list xs) 0.5
let sum = Array.fold_left ( +. ) 0.

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* ------------------------------------------------------------------ *)
(* Result line *)

type metric = { name : string; unit_ : string; value : float }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed (metrics : metric list) =
  List.iter (fun m -> pr "  %-36s %18.6f %s" m.name m.value m.unit_) metrics;
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit_)
         metrics)
  in
  pr "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct attempted
    failed body

(* ------------------------------------------------------------------ *)
(* The engine, configured as in production *)

type engine = {
  sim : Simulation.t;
  flight : Flight.t;
  dir : string;
}

(* Input generation, [Simulation.create], arming persistence and the
   warm-up ticks: what [setup_s] measures. *)
let engine_setup (w : Workloads.t) ~seed ~dir : engine * float =
  let t0 = Timer.now () in
  let prog = w.Workloads.compile () in
  let inst = w.Workloads.make ~seed ~prog in
  let sim =
    Simulation.create inst.Workloads.config ~evaluator:Simulation.Indexed
      ~units:inst.Workloads.units
  in
  Simulation.checkpoint_every ~fsync:false sim ~dir ~every:checkpoint_every;
  let flight = Flight.create ~capacity:flight_capacity in
  Simulation.set_observer sim (Some (Flight.record flight));
  for _ = 1 to warmup_ticks do
    Simulation.step sim
  done;
  ({ sim; flight; dir }, Timer.now () -. t0)

let engine_close (e : engine) =
  Simulation.detach_persistence e.sim;
  rm_rf e.dir

(* Bytes the journal and checkpoints put on disk.  Files only grow (the
   journal) or appear whole (checkpoints, renamed into place), so the
   largest size seen per name is what was written to it; pruned files stay
   in the table. *)
type disk = { sizes : (string, int) Hashtbl.t }

let disk_scan (d : disk) (dir : string) =
  Array.iter
    (fun f ->
      match (Unix.stat (Filename.concat dir f)).Unix.st_size with
      | size ->
        let prev = Option.value ~default:0 (Hashtbl.find_opt d.sizes f) in
        if size > prev then Hashtbl.replace d.sizes f size
      | exception Unix.Unix_error _ -> ())
    (Sys.readdir dir)

let is_checkpoint f = Filename.check_suffix f ".sglc"
let is_journal f = Filename.check_suffix f ".sglj"

type window = {
  walls : float array; (* per committed tick, seconds *)
  wall_s : float; (* the window, scans excluded *)
  attempted : int;
  faulted : int;
  disk_bytes_per_tick : float;
}

(* Step the engine for at least [seconds] and [min_ticks] ticks.  A tick
   that raises ends the window (under [Fail] a retry would raise again). *)
let engine_window (e : engine) ~seconds ~min_ticks : window =
  let before = { sizes = Hashtbl.create 8 } in
  disk_scan before e.dir;
  let d = { sizes = Hashtbl.copy before.sizes } in
  let walls = Varray.create 0. in
  let faulted = ref 0 and scan_s = ref 0. in
  let start = Timer.now () in
  let rec loop () =
    let t0 = Timer.now () in
    match Simulation.step e.sim with
    | exception Fault.Error f ->
      pr "tick %d raised: %s" (Simulation.tick_count e.sim) (Fmt.str "%a" Fault.pp f);
      incr faulted
    | () ->
      let t1 = Timer.now () in
      Varray.push walls (t1 -. t0);
      disk_scan d e.dir;
      scan_s := !scan_s +. (Timer.now () -. t1);
      if Timer.now () -. start -. !scan_s < seconds || Varray.length walls < min_ticks then loop ()
  in
  loop ();
  let wall_s = Timer.now () -. start -. !scan_s in
  let ticks = Varray.length walls in
  let written f =
    Hashtbl.find d.sizes f - Option.value ~default:0 (Hashtbl.find_opt before.sizes f)
  in
  let journal = ref 0 and ckpt_bytes = ref 0 and ckpts = ref 0 in
  Hashtbl.iter
    (fun f _ ->
      if is_journal f then journal := !journal + written f
      else if is_checkpoint f && not (Hashtbl.mem before.sizes f) then begin
        ckpt_bytes := !ckpt_bytes + written f;
        incr ckpts
      end)
    d.sizes;
  (* Steady state: journal bytes per tick plus one checkpoint generation
     amortized over the cadence (a window of 100+ ticks holds at least one),
     so the figure does not jump with where the window ends. *)
  let per_ckpt = if !ckpts = 0 then 0. else float_of_int !ckpt_bytes /. float_of_int !ckpts in
  {
    walls = Varray.to_array walls;
    wall_s;
    attempted = ticks + !faulted;
    faulted = !faulted;
    disk_bytes_per_tick =
      (float_of_int !journal /. float_of_int (max 1 ticks))
      +. (per_ckpt /. float_of_int checkpoint_every);
  }

(* Per-tick digests the flight recorder holds, keyed by tick. *)
let flight_digests (fl : Flight.t) : (int, int) Hashtbl.t =
  let h = Hashtbl.create 256 in
  List.iter (fun (s : Flight.sample) -> Hashtbl.replace h s.Simulation.s_tick s.Simulation.s_digest)
    (Flight.tail fl);
  h

(* Ticks whose digest in [got] differs from the one [want] has for them. *)
let mismatched ~(want : (int, int) Hashtbl.t) ~(got : (int, int) Hashtbl.t) : int list =
  Hashtbl.fold
    (fun tick d acc ->
      match Hashtbl.find_opt want tick with Some d' when d' <> d -> tick :: acc | _ -> acc)
    got []
  |> List.sort compare

let work_of_samples (samples : Flight.sample list) ~probes ~uniform_hits ~aoe_calls :
    Workloads.work =
  let window =
    List.filter (fun (s : Flight.sample) -> s.Simulation.s_tick > warmup_ticks) samples
  in
  let per f = List.map f window in
  {
    Workloads.w_probes = probes;
    w_uniform_hits = uniform_hits;
    w_aoe_calls = aoe_calls;
    w_builds_per_tick = per (fun s -> s.Simulation.s_index_builds);
    w_deaths_per_tick = per (fun s -> s.Simulation.s_deaths);
    w_reuses_per_tick = per (fun s -> s.Simulation.s_index_reuses);
  }

let check_work (w : Workloads.t) (work : Workloads.work) : bool =
  match w.Workloads.guard work with
  | [] ->
    pr "work-done guard: ok";
    true
  | failures ->
    List.iter (fun f -> pr "work-done guard FAILED: %s" f) failures;
    false

(* The newest checkpoint generation the engine wrote before [tick]. *)
let checkpoint_before (e : engine) ~tick : Driver.Checkpoint.state =
  let schema = Simulation.schema e.sim in
  match List.find_opt (fun g -> g < tick) (Driver.Checkpoint.generations ~dir:e.dir) with
  | Some g -> Driver.Checkpoint.load ~schema (Driver.Checkpoint.path ~dir:e.dir ~tick:g)
  | None -> failwith "no checkpoint generation before the final tick"

(* ------------------------------------------------------------------ *)
(* --trace 0 *)

let end_to_end (w : Workloads.t) ~seed ~seconds ~state =
  pr "engine: indexed evaluator; optimizer, index cache and columnar mirror on; fault policy fail";
  pr "armed: journal + checkpoint every %d ticks (fsync OFF), flight recorder capacity %d"
    checkpoint_every flight_capacity;
  let setups = ref [] and last = ref None in
  for i = 1 to setup_runs do
    Option.iter engine_close !last;
    last := None;
    Gc.compact ();
    let e, s = engine_setup w ~seed ~dir:(fresh_dir (Filename.concat state (string_of_int i))) in
    setups := s :: !setups;
    last := Some e
  done;
  pr "set-up runs: %s s" (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !setups));
  let e = Option.get !last in
  let r0 = Simulation.report e.sim in
  let win = engine_window e ~seconds ~min_ticks in
  let peak = peak_heap_mb () in
  let r1 = Simulation.report e.sim in
  let samples = Flight.tail e.flight in
  let digests = flight_digests e.flight in
  let final_tick = Simulation.tick_count e.sim in
  let final_digest = Simulation.state_digest e.sim in
  let from = checkpoint_before e ~tick:final_tick in
  engine_close e;
  last := None;
  Gc.compact ();
  (* The reference: the layered driver re-executes the ticks since the
     engine's newest checkpoint generation.  (Every tick from the inputs
     on is compared in the traced run; here it would double the run.) *)
  let drv =
    Driver.create ~from ~setup:(Ledger.create ~on:false) ~ledger:(Ledger.create ~on:false)
      ~backend:Driver.Indexed w ~seed
  in
  let ref_digests = Hashtbl.create 64 in
  while drv.Driver.tick < final_tick do
    Driver.step drv;
    Hashtbl.replace ref_digests drv.Driver.tick drv.Driver.last_digest
  done;
  let bad = mismatched ~want:ref_digests ~got:digests in
  let final_ok = drv.Driver.last_digest = final_digest in
  pr "reference: layered driver from checkpoint tick %d to tick %d: digest %08x, engine %08x (%s)"
    from.Driver.Checkpoint.tick final_tick drv.Driver.last_digest final_digest
    (if final_ok then "agree" else "DISAGREE");
  let work =
    work_of_samples samples
      ~probes:(r1.Simulation.index_probes - r0.Simulation.index_probes)
      ~uniform_hits:(r1.Simulation.uniform_hits - r0.Simulation.uniform_hits)
      ~aoe_calls:!(drv.Driver.aoe_calls)
  in
  let work_ok = check_work w work in
  let ticks = Array.length win.walls in
  let failed = win.faulted + List.length bad in
  pr "samples: %d timed ticks (p90 leaves %d beyond it), %d set-ups" ticks
    (ticks - int_of_float (ceil (0.9 *. float_of_int ticks)))
    setup_runs;
  pr "tick wall ms: min %.1f  p10 %.1f  p25 %.1f  p50 %.1f  p75 %.1f  p90 %.1f  max %.1f"
    (1e3 *. percentile win.walls 0.) (1e3 *. percentile win.walls 0.1)
    (1e3 *. percentile win.walls 0.25) (1e3 *. percentile win.walls 0.5)
    (1e3 *. percentile win.walls 0.75) (1e3 *. percentile win.walls 0.9)
    (1e3 *. percentile win.walls 1.);
  pr "failed_tick_share: %.6f (%d of %d ticks)"
    (float_of_int failed /. float_of_int (max 1 win.attempted))
    failed win.attempted;
  let correct = failed = 0 && final_ok && work_ok in
  print_result ~correct ~attempted:win.attempted ~failed
    [
      { name = "ticks_per_s"; unit_ = "1/s"; value = float_of_int ticks /. win.wall_s };
      { name = "tick_p50_ms"; unit_ = "ms"; value = 1e3 *. percentile win.walls 0.5 };
      { name = "tick_p90_ms"; unit_ = "ms"; value = 1e3 *. percentile win.walls 0.9 };
      { name = "setup_s"; unit_ = "s"; value = median !setups };
      { name = "peak_heap_mb"; unit_ = "MiB"; value = peak };
      { name = "disk_bytes_per_tick"; unit_ = "bytes"; value = win.disk_bytes_per_tick };
    ];
  correct

(* ------------------------------------------------------------------ *)
(* --trace 1 *)

let traced (w : Workloads.t) ~seed ~seconds ~state =
  (* A: the engine, untraced, over the window *)
  let e, _ = engine_setup w ~seed ~dir:(fresh_dir (Filename.concat state "engine")) in
  (* reach the first checkpoint generation after arming, so the commit
     layers are measured with a checkpoint inside the window *)
  let win = engine_window e ~seconds ~min_ticks:(checkpoint_every - warmup_ticks) in
  let engine_digests = flight_digests e.flight in
  let ticks = Simulation.tick_count e.sim in
  engine_close e;
  Gc.compact ();
  (* B: the layered driver over the same ticks, every layer in a span *)
  let setup = Ledger.create ~on:true in
  let ledger = Ledger.create ~on:true in
  let flight = Flight.create ~capacity:flight_capacity in
  let drv = Driver.create ~flight ~setup ~ledger ~backend:Driver.Indexed w ~seed in
  Driver.arm drv ~dir:(fresh_dir (Filename.concat state "driver")) ~every:checkpoint_every;
  for _ = 1 to warmup_ticks do
    Driver.step drv
  done;
  Ledger.reset ledger;
  let aoe0 = !(drv.Driver.aoe_calls) in
  let driver_digests = Hashtbl.create 256 in
  let walls = Varray.create 0. and decision_s = ref 0. in
  Telemetry.Span.start ();
  while drv.Driver.tick < ticks do
    Driver.step drv;
    Hashtbl.replace driver_digests drv.Driver.tick drv.Driver.last_digest;
    Varray.push walls drv.Driver.last_wall_s;
    decision_s := !decision_s +. drv.Driver.last_decision_s
  done;
  Telemetry.Span.stop ();
  Telemetry.Span.write ~path:trace_file;
  Driver.disarm drv;
  let walls = Varray.to_array walls in
  let n = Array.length walls in
  let traced_s = sum walls in
  let per_tick s = 1e3 *. s /. float_of_int n in
  let count name = float_of_int (Ledger.counted ledger name) /. float_of_int n in
  (* A checkpoint generation amortized over its cadence, as
     disk_bytes_per_tick is, so the figure does not depend on how many
     generations the window happens to hold. *)
  let per_checkpoint x =
    match Ledger.counted ledger "persist.checkpoints" with
    | 0 -> 0.
    | c -> x /. float_of_int c /. float_of_int checkpoint_every
  in
  let layer_s = Ledger.total_self_s ledger -. Ledger.self_s ledger "tick" in
  let unaccounted = 1. -. (layer_s /. traced_s) in
  let overhead = (traced_s /. sum (Array.sub win.walls 0 n)) -. 1. in
  let mismatch_ticks = Hashtbl.create 16 in
  let note label bad =
    if bad <> [] then
      pr "digest DISAGREES with the engine: %s at tick(s) %s" label
        (String.concat "," (List.map string_of_int bad));
    List.iter (fun t -> Hashtbl.replace mismatch_ticks t ()) bad
  in
  note "layered driver" (mismatched ~want:engine_digests ~got:driver_digests);
  let samples = Flight.tail flight in
  let work =
    work_of_samples samples
      ~probes:(Ledger.counted ledger "qopt.eval.index_probes")
      ~uniform_hits:(Ledger.counted ledger "qopt.eval.uniform_hits")
      ~aoe_calls:(!(drv.Driver.aoe_calls) - aoe0)
  in
  let builds = Ledger.counted ledger "qopt.eval.index_builds"
  and reuses = Ledger.counted ledger "qopt.eval.index_reuses" in
  let setup_ms name = 1e3 *. Ledger.self_s setup name in
  Gc.compact ();
  (* backend replays over the first ticks of the same inputs *)
  let fuse_ms = ref 0. in
  let backends =
    [ Driver.Indexed; Driver.Fused; Driver.Parallel2 ]
    @ if w.Workloads.naive_replay then [ Driver.Naive ] else []
  in
  let decision_ms =
    List.map
      (fun backend ->
        let setup = Ledger.create ~on:true in
        let d =
          Driver.create ~setup ~ledger:(Ledger.create ~on:false) ~backend w ~seed
        in
        if backend = Driver.Fused then fuse_ms := 1e3 *. Ledger.self_s setup "qopt.fuse";
        let digests = Hashtbl.create 32 and decision = ref 0. in
        while d.Driver.tick < warmup_ticks + replay_ticks do
          Driver.step d;
          Hashtbl.replace digests d.Driver.tick d.Driver.last_digest;
          if d.Driver.tick > warmup_ticks then decision := !decision +. d.Driver.last_decision_s
        done;
        note (Driver.backend_name backend) (mismatched ~want:engine_digests ~got:digests);
        Gc.compact ();
        (backend, 1e3 *. !decision /. float_of_int replay_ticks))
      backends
  in
  let backend_ms b = List.assoc b decision_ms in
  Option.iter
    (fun ms -> pr "qopt.decision_ms.naive (not a listed metric: naive fits only here) %.3f ms" ms)
    (List.assoc_opt Driver.Naive decision_ms);
  let work_ok = check_work w work in
  let failed = win.faulted + Hashtbl.length mismatch_ticks in
  pr "traced ticks: %d; backends replayed %d ticks each: %s" n replay_ticks
    (String.concat ", " (List.map (fun (b, _) -> Driver.backend_name b) decision_ms));
  pr "layer accounting%s: the layers cover %.1f%% of the traced tick"
    (if Float.abs unaccounted > 0.05 then " FLAG" else "")
    (100. *. (1. -. unaccounted));
  let kind_metrics prefix bucket kinds =
    List.map
      (fun k ->
        let value = per_tick (Ledger.self_s ledger (bucket ^ "." ^ k)) in
        { name = prefix ^ "." ^ k; unit_ = "ms"; value })
      kinds
  in
  let layer name bucket = { name; unit_ = "ms"; value = per_tick (Ledger.self_s ledger bucket) } in
  let counter name = { name; unit_ = "count"; value = count name } in
  print_result ~correct:(failed = 0 && work_ok) ~attempted:(n + win.faulted) ~failed
    ([
       { name = "sgl.compile_ms"; unit_ = "ms"; value = setup_ms "sgl.compile" };
       { name = "analysis.oracle_ms"; unit_ = "ms"; value = setup_ms "analysis.oracle" };
       { name = "qopt.compile_ms"; unit_ = "ms"; value = setup_ms "qopt.compile" };
       { name = "qopt.fuse_ms"; unit_ = "ms"; value = !fuse_ms };
       {
         name = "relalg.colstore_build_ms";
         unit_ = "ms";
         value = setup_ms "relalg.colstore_build";
       };
       { name = "qopt.decision_ms"; unit_ = "ms"; value = per_tick !decision_s };
       layer "qopt.exec_self_ms" "qopt.exec";
       counter "relalg.combine.effect_rows";
     ]
    @ kind_metrics "qopt.eval.build_ms" "qopt.eval.build" Driver.build_kinds
    @ [ counter "qopt.eval.index_builds" ]
    @ kind_metrics "qopt.eval.probe_ms" "qopt.eval.probe" Driver.kinds
    @ [
        counter "qopt.eval.index_probes";
        counter "qopt.eval.naive_scans";
        counter "qopt.eval.uniform_hits";
        layer "qopt.eval.begin_tick_ms" "qopt.eval.begin_tick";
        counter "qopt.eval.index_reuses";
        {
          name = "qopt.eval.reuse_ratio";
          unit_ = "ratio";
          value =
            (if builds + reuses = 0 then 0.
             else float_of_int reuses /. float_of_int (builds + reuses));
        };
        layer "qopt.eval.aoe_ms" "qopt.eval.aoe";
        layer "engine.post_ms" "engine.post";
        layer "engine.movement_ms" "engine.movement";
        layer "engine.death_ms" "engine.death";
        counter "engine.deaths";
        counter "relalg.delta.dirty_keys";
        { name = "relalg.delta.structural_share"; unit_ = "ratio";
          value = count "relalg.delta.structural_ticks" };
        layer "relalg.colstore_refresh_ms" "relalg.colstore_refresh";
        layer "persist.digest_ms" "persist.digest";
        layer "persist.journal_ms" "persist.journal";
        { name = "persist.journal_bytes"; unit_ = "bytes"; value = count "persist.journal_bytes" };
        { name = "persist.checkpoint_ms"; unit_ = "ms";
          value = 1e3 *. per_checkpoint (Ledger.self_s ledger "persist.checkpoint") };
        { name = "persist.checkpoint_bytes"; unit_ = "bytes";
          value = per_checkpoint (float_of_int (Ledger.counted ledger "persist.checkpoint_bytes")) };
        layer "obs.flight_ms" "obs.flight";
        { name = "qopt.decision_ms.indexed"; unit_ = "ms"; value = backend_ms Driver.Indexed };
        { name = "qopt.decision_ms.fused"; unit_ = "ms"; value = backend_ms Driver.Fused };
        { name = "qopt.decision_ms.parallel2"; unit_ = "ms"; value = backend_ms Driver.Parallel2 };
        { name = "tick.traced_ms"; unit_ = "ms"; value = per_tick traced_s };
        { name = "tick.unaccounted_share"; unit_ = "ratio"; value = unaccounted };
        { name = "trace.overhead_share"; unit_ = "ratio"; value = overhead };
      ]);
  failed = 0 && work_ok

(* ------------------------------------------------------------------ *)
(* Command line *)

let usage =
  "tickbench --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME battle-12k | steer-4k | sentry-100k");
      ("--seed", Arg.Set_int seed, Printf.sprintf "N workload seed (default %d)" default_seed);
      ("--seconds", Arg.Set_float seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match Workloads.find !workload with
  | None ->
    prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
    exit 2
  | Some w ->
    pr "workload %s: %s" w.Workloads.name w.Workloads.why;
    pr "seed %d (default %d, held out for confirming claims: %d); timed window %.1f s" !seed
      default_seed held_out_seed !seconds;
    let run_dir = Printf.sprintf "%s-%d" w.Workloads.name (Unix.getpid ()) in
    let state = fresh_dir (Filename.concat state_dir run_dir) in
    let ok =
      Fun.protect ~finally:(fun () -> rm_rf state) (fun () ->
          if !trace = 0 then end_to_end w ~seed:!seed ~seconds:!seconds ~state
          else traced w ~seed:!seed ~seconds:!seconds ~state)
    in
    exit (if ok then 0 else 1)
