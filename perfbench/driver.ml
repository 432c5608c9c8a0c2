(* A layered tick driver: the engine's tick, driven step by step through
   each layer's public functions so the benchmark can time every layer
   from the outside.

   One tick is what [Simulation.step] does with the fault policy [Fail]
   and the index cache and columnar mirror on: decision (through
   [Exec.run_tick*] over a wrapped [Eval.t]), [Postprocess.apply],
   [Movement.run], death handling, [Colstore.refresh], then the commit
   hooks — the state digest ([Codec.units_digest_*]), [Journal.append],
   a [Checkpoint.save] generation every [every] ticks, and
   [Flight.record].  Every per-tick digest must equal the engine's at the
   same tick; the benchmark checks that. *)

open Sgl
module Codec = Persist.Codec
module Journal = Persist.Journal
module Checkpoint = Persist.Checkpoint
module Flight = Obs.Flight
module Colstore = Sgl_relalg.Colstore

type backend =
  | Indexed
  | Naive
  | Fused
  | Parallel2

let backend_name = function
  | Indexed -> "indexed"
  | Naive -> "naive"
  | Fused -> "fused"
  | Parallel2 -> "parallel2"

(* Aggregate strategy of each instance, as a metric-name suffix. *)
let kind_names (prog : Core_ir.program) : string array =
  Array.map
    (fun agg ->
      String.map
        (function '+' | '-' -> '_' | c -> c)
        (Agg_plan.strategy_name (Agg_plan.analyze prog.Core_ir.schema agg)))
    prog.Core_ir.aggregates

let kinds = [ "uniform"; "indexed"; "indexed_sweep"; "indexed_enumerate"; "naive" ]

(* The kinds that build index structures (uniform and naive-only never do). *)
let build_kinds = [ "indexed"; "indexed_sweep"; "indexed_enumerate" ]

(* The evaluator with every entry point charged to the ledger.  An
   [eval_agg] call's self time splits into build (the change in the
   evaluator's own [build_seconds]) and probe (the rest). *)
let wrap_eval (l : Ledger.t) ~(kinds : string array) ~(aoe_calls : int ref) (ev : Eval.t) : Eval.t =
  {
    ev with
    Eval.begin_tick =
      (fun ?delta ?cols units ->
        Ledger.span l "qopt.eval.begin_tick" (fun () -> ev.Eval.begin_tick ?delta ?cols units));
    eval_agg =
      (fun ~agg_id ~rows ~rands ->
        let kind = kinds.(agg_id) in
        let probe = "qopt.eval.probe." ^ kind in
        let b0 = ev.Eval.stats.Eval.build_seconds in
        let r = Ledger.span l probe (fun () -> ev.Eval.eval_agg ~agg_id ~rows ~rands) in
        Ledger.move l ~from_:probe ~to_:("qopt.eval.build." ^ kind)
          (ev.Eval.stats.Eval.build_seconds -. b0);
        r);
    apply_aoe =
      (fun ~pred ~updates ~contributors ~contributor_rands ~acc ->
        incr aoe_calls;
        Ledger.span l "qopt.eval.aoe" (fun () ->
            ev.Eval.apply_aoe ~pred ~updates ~contributors ~contributor_rands ~acc));
  }

type persist = {
  dir : string;
  every : int;
  mutable base : int;
  mutable journal : Journal.writer;
}

type t = {
  backend : backend;
  ledger : Ledger.t;
  config : Simulation.config;
  schema : Schema.t;
  decide :
    ?delta:Delta.t ->
    ?cols:Colstore.t ->
    Tuple.t array ->
    Exec.group list ->
    (key:int -> int -> int) ->
    Combine.Acc.t;
  stats : unit -> Eval.eval_stats;
  aoe_calls : int ref;
  prng : Prng.t;
  mutable units : Tuple.t array;
  store : Colstore.t;
  mutable pending_delta : Delta.t option;
  mutable digest_cache : (int * Codec.digest_cache) option;
  mutable tick : int;
  mutable deaths : int;
  mutable resurrections : int;
  mutable persist : persist option;
  flight : Flight.t option;
  (* what the last tick measured *)
  mutable last_digest : int;
  mutable last_wall_s : float;
  mutable last_decision_s : float;
}

(* [create ~setup ~ledger ~backend w ~seed] builds the driver over the
   workload's inputs, or over a checkpoint generation of them when [from]
   is given (cold caches, as [Simulation.restore] reopens them).  The setup
   layers are charged to [setup]; the tick layers to [ledger]. *)
let create ?flight ?(from : Checkpoint.state option) ~(setup : Ledger.t) ~(ledger : Ledger.t)
    ~(backend : backend) (w : Workloads.t) ~(seed : int) : t =
  let prog = Ledger.span setup "sgl.compile" w.Workloads.compile in
  let inst = w.Workloads.make ~seed ~prog in
  let config = inst.Workloads.config in
  let schema = prog.Core_ir.schema and aggregates = prog.Core_ir.aggregates in
  let oracle = Ledger.span setup "analysis.oracle" (fun () -> Analysis.Absint.make_oracle prog) in
  let compiled =
    Ledger.span setup "qopt.compile" (fun () ->
        Exec.compile ~optimize:config.Simulation.optimize ~prove:oracle.Analysis.Absint.prove prog)
  in
  let aoe_calls = ref 0 in
  let wrap = wrap_eval ledger ~kinds:(kind_names prog) ~aoe_calls in
  let run_tick ev ?delta ?cols units groups rand_for =
    Exec.run_tick ?delta ?cols compiled ~evaluator:ev ~units ~groups ~rand_for
  in
  let decide, stats =
    match backend with
    | Indexed ->
      let ev = wrap (Eval.indexed ~schema ~aggregates ()) in
      (run_tick ev, fun () -> ev.Eval.stats)
    | Naive ->
      let ev = wrap (Eval.naive ~schema ~aggregates) in
      (run_tick ev, fun () -> ev.Eval.stats)
    | Fused ->
      let kernels =
        Ledger.span setup "qopt.fuse" (fun () ->
            Exec.fuse ~fold:oracle.Analysis.Absint.fold compiled)
      in
      let ev = wrap (Eval.indexed ~schema ~aggregates ()) in
      ( (fun ?delta ?cols units groups rand_for ->
          Exec.run_tick_fused ?delta ?cols compiled ~fused:kernels ~evaluator:ev ~units ~groups
            ~rand_for),
        fun () -> ev.Eval.stats )
    | Parallel2 ->
      (* family members run on pool domains, so they are not wrapped *)
      let pool = Domain_pool.shared ~domains:2 in
      let family =
        Eval.indexed_family ~schema ~aggregates ~chunks:(Domain_pool.size pool) ()
      in
      ( (fun ?delta ?cols units groups rand_for ->
          Exec.run_tick_parallel ?delta ?cols compiled ~pool ~family ~units ~groups ~rand_for),
        fun () -> Eval.family_stats family )
  in
  let units, tick, deaths, resurrections =
    match from with
    | None -> (inst.Workloads.units, 0, 0, 0)
    | Some st ->
      let counter name = Option.value ~default:0 (List.assoc_opt name st.Checkpoint.counters) in
      (st.Checkpoint.units, st.Checkpoint.tick, counter "deaths", counter "resurrections")
  in
  let store =
    Ledger.span setup "relalg.colstore_build" (fun () -> Colstore.of_tuples schema units)
  in
  {
    backend;
    ledger;
    config;
    schema;
    decide;
    stats;
    aoe_calls;
    prng = Prng.create config.Simulation.seed;
    units = Array.map Tuple.copy units;
    store;
    pending_delta = None;
    digest_cache = None;
    tick;
    deaths;
    resurrections;
    persist = None;
    flight;
    last_digest = 0;
    last_wall_s = 0.;
    last_decision_s = 0.;
  }

(* Script groups in order of first appearance, as the engine forms them. *)
let groups (t : t) : Exec.group list =
  let by_script : (string, int Varray.t) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  Array.iteri
    (fun i u ->
      match t.config.Simulation.script_of u with
      | None -> ()
      | Some name -> (
        match Hashtbl.find_opt by_script name with
        | Some bucket -> Varray.push bucket i
        | None ->
          let bucket = Varray.create 0 in
          Varray.push bucket i;
          Hashtbl.add by_script name bucket;
          order := name :: !order))
    t.units;
  List.rev_map
    (fun name -> { Exec.script = name; members = Varray.to_array (Hashtbl.find by_script name) })
    !order

let checkpoint_state (t : t) : Checkpoint.state =
  {
    Checkpoint.tick = t.tick;
    seed = t.config.Simulation.seed;
    cache_epoch = t.tick;
    units = t.units;
    quarantined = [];
    counters =
      [
        ("deaths", t.deaths);
        ("resurrections", t.resurrections);
        ("faults", 0);
        ("retries", 0);
        ("rollbacks", 0);
        ("suppressed", 0);
      ];
    degradations = [];
  }

let file_size path = (Unix.stat path).Unix.st_size

(* Cut a checkpoint generation and rotate the journal onto it. *)
let checkpoint (t : t) (p : persist) : unit =
  let l = t.ledger in
  Ledger.span l "persist.checkpoint" (fun () ->
      let path = Checkpoint.save ~dir:p.dir ~fsync:false ~schema:t.schema (checkpoint_state t) in
      Ledger.count l "persist.checkpoints" 1;
      Ledger.count l "persist.checkpoint_bytes" (file_size path);
      Journal.close p.journal;
      p.base <- t.tick;
      p.journal <- Journal.create ~dir:p.dir ~base:t.tick ~fsync:false;
      Checkpoint.prune ~dir:p.dir ~keep:2)

(* Arm persistence as [Simulation.checkpoint_every ~fsync:false] does:
   an initial generation now, a journal record per tick after. *)
let arm (t : t) ~(dir : string) ~(every : int) : unit =
  let journal = Journal.create ~dir ~base:t.tick ~fsync:false in
  let p = { dir; every; base = t.tick; journal } in
  t.persist <- Some p;
  checkpoint t p

let disarm (t : t) : unit =
  Option.iter (fun p -> Journal.close p.journal) t.persist;
  t.persist <- None

(* The state digest, incremental over the last tick's dirty columns when
   the tick was non-structural (as [Simulation.state_digest]). *)
let digest (t : t) : int =
  let cache =
    match (t.digest_cache, t.pending_delta) with
    | Some (tick, cache), Some d when tick = t.tick - 1 && not (Delta.structural d) ->
      Codec.units_digest_incremental cache ~dirty:(Delta.dirty_attrs d) t.units
    | _ -> Codec.units_digest_cache t.units
  in
  t.digest_cache <- Some (t.tick, cache);
  Codec.digest_of_cache cache

let resurrect (t : t) ~health ~max_health ~tick grid (dead : Tuple.t array) : Tuple.t array =
  Array.map
    (fun row ->
      let out = Tuple.copy row in
      Tuple.set out health (Tuple.get out max_health);
      (match (grid, t.config.Simulation.movement) with
      | Some g, Some m -> (
        let key = Tuple.key t.schema out in
        match Movement.random_free_cell g t.prng ~tick ~salt:key with
        | Some (x, y) ->
          Tuple.set out m.Movement.posx (Value.Float (float_of_int x));
          Tuple.set out m.Movement.posy (Value.Float (float_of_int y));
          Movement.move_unit g ~key
            ~from_:
              ( Value.to_int (Tuple.get row m.Movement.posx),
                Value.to_int (Tuple.get row m.Movement.posy) )
            ~to_:(x, y)
        | None -> ())
      | _ -> ());
      t.resurrections <- t.resurrections + 1;
      out)
    dead

let step (t : t) : unit =
  let l = t.ledger in
  let tick = t.tick in
  let t_start = Timer.now () in
  let s0 = t.stats () in
  let builds0 = s0.Eval.index_builds
  and probes0 = s0.Eval.index_probes
  and scans0 = s0.Eval.naive_scans
  and uniform0 = s0.Eval.uniform_hits
  and reuses0 = s0.Eval.index_reuses in
  Ledger.span l "tick" (fun () ->
      let sch = t.schema in
      let rand_for ~key i = Prng.script_random t.prng ~tick ~key i in
      let delta_out = Delta.create sch in
      let cols =
        if Colstore.length t.store = Array.length t.units && Colstore.rectangular t.store then
          Some t.store
        else None
      in
      let d0 = Timer.now () in
      let acc =
        Ledger.span l "qopt.exec" (fun () ->
            t.decide ?delta:t.pending_delta ?cols t.units (groups t) rand_for)
      in
      t.last_decision_s <- Timer.now () -. d0;
      Ledger.count l "relalg.combine.effect_rows" (Combine.Acc.cardinality acc);
      let p0 = Timer.now () in
      let alive, dead =
        Ledger.span l "engine.post" (fun () ->
            let results =
              Postprocess.apply ~delta:delta_out t.config.Simulation.postprocess ~schema:sch
                ~rand_for ~units:t.units ~acc
            in
            let alive = Varray.create [||] and dead = Varray.create [||] in
            Array.iter
              (fun (row, survived) -> Varray.push (if survived then alive else dead) row)
              results;
            (Varray.to_array alive, Varray.to_array dead))
      in
      let m0 = Timer.now () in
      let grid =
        Ledger.span l "engine.movement" (fun () ->
            Option.map
              (fun m ->
                Movement.run ~delta:delta_out m ~schema:sch ~prng:t.prng ~tick ~units:alive ~acc)
              t.config.Simulation.movement)
      in
      let x0 = Timer.now () in
      let final =
        Ledger.span l "engine.death" (fun () ->
            t.deaths <- t.deaths + Array.length dead;
            match t.config.Simulation.death with
            | Simulation.Remove -> alive
            | Simulation.Resurrect { health; max_health } ->
              Array.append alive (resurrect t ~health ~max_health ~tick grid dead))
      in
      let x1 = Timer.now () in
      Ledger.count l "engine.deaths" (Array.length dead);
      if Array.length dead > 0 then Delta.record_structural delta_out;
      t.units <- final;
      Ledger.span l "relalg.colstore_refresh" (fun () ->
          Colstore.refresh ~delta:delta_out t.store final);
      t.pending_delta <- Some delta_out;
      t.tick <- tick + 1;
      Ledger.count l "relalg.delta.dirty_keys" (Delta.dirty_key_count delta_out);
      if Delta.structural delta_out then Ledger.count l "relalg.delta.structural_ticks" 1;
      (* commit *)
      t.last_digest <- Ledger.span l "persist.digest" (fun () -> digest t);
      Option.iter
        (fun p ->
          let before = Journal.bytes_written p.journal in
          Ledger.span l "persist.journal" (fun () ->
              Journal.append p.journal
                {
                  Journal.j_tick = t.tick;
                  j_units = Array.length t.units;
                  j_digest = t.last_digest;
                  j_deaths = t.deaths;
                  j_resurrections = t.resurrections;
                  j_structural = Delta.structural delta_out;
                  j_dirty_attrs = Delta.dirty_attrs delta_out;
                  j_dirty_keys = Delta.dirty_key_count delta_out;
                });
          Ledger.count l "persist.journal_bytes" (Journal.bytes_written p.journal - before);
          if p.every > 0 && t.tick - p.base >= p.every then checkpoint t p)
        t.persist;
      let s = t.stats () in
      Ledger.count l "qopt.eval.index_builds" (s.Eval.index_builds - builds0);
      Ledger.count l "qopt.eval.index_probes" (s.Eval.index_probes - probes0);
      Ledger.count l "qopt.eval.naive_scans" (s.Eval.naive_scans - scans0);
      Ledger.count l "qopt.eval.uniform_hits" (s.Eval.uniform_hits - uniform0);
      Ledger.count l "qopt.eval.index_reuses" (s.Eval.index_reuses - reuses0);
      Option.iter
        (fun fl ->
          Ledger.span l "obs.flight" (fun () ->
              Flight.record fl
                {
                  Simulation.s_tick = t.tick;
                  s_units = Array.length t.units;
                  s_digest = t.last_digest;
                  s_tick_s = Timer.now () -. t_start;
                  s_decision_s = t.last_decision_s;
                  s_post_s = m0 -. p0;
                  s_movement_s = x0 -. m0;
                  s_death_s = x1 -. x0;
                  s_deaths = Array.length dead;
                  s_resurrections =
                    (match t.config.Simulation.death with
                    | Simulation.Resurrect _ -> Array.length dead
                    | Simulation.Remove -> 0);
                  s_faults = 0;
                  s_rollbacks = 0;
                  s_retries = 0;
                  s_demotions = 0;
                  s_index_builds = s.Eval.index_builds - builds0;
                  s_index_reuses = s.Eval.index_reuses - reuses0;
                  s_evaluator = backend_name t.backend;
                }))
        t.flight);
  t.last_wall_s <- Timer.now () -. t_start
