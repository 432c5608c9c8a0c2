(* The discrete simulation engine (Sections 2.2 and 6).

   Each clock tick runs the paper's phases:

   1. decision + action — the optimized plans execute set-at-a-time over
      every scripted unit; index building happens inside the pluggable
      evaluator and is accounted separately (the paper's two index-building
      phases);
   2. post-processing — the Example 4.1 query applies combined effects to
      unit state;
   3. movement — random order, collision detection, simple pathfinding;
   4. death — dead units are removed, or "resurrected at a position chosen
      uniformly at random" to keep the workload constant (Section 6). *)

open Sgl_util
open Sgl_relalg
open Sgl_lang
open Sgl_qopt

type death_rule =
  | Remove
  | Resurrect of { health : int; max_health : int }

type config = {
  prog : Core_ir.program;
  script_of : Tuple.t -> string option; (* None: the unit acts as "empty" *)
  postprocess : Postprocess.t;
  movement : Movement.config option;
  death : death_rule;
  seed : int;
  optimize : bool; (* run the Section 5.2 plan rewrites *)
}

type evaluator_kind =
  | Naive
  | Indexed
  | Parallel of { domains : int } (* chunked decision phase over a domain pool *)
  | Fused (* plans lowered to the loop IR and compiled into kernels *)

let evaluator_name = function
  | Naive -> "naive"
  | Indexed -> "indexed"
  | Parallel { domains } -> Printf.sprintf "parallel:%d" domains
  | Fused -> "fused"

(* What [step] does when a tick phase raises (ticks are transactional:
   the pre-tick state is always intact when the policy gets to decide). *)
type fault_policy =
  | Fail (* roll back, re-raise with context *)
  | Quarantine_script (* a failing script group is excluded and reported *)
  | Degrade (* demote the evaluator parallel -> indexed -> naive and retry *)

let fault_policy_name = function
  | Fail -> "fail"
  | Quarantine_script -> "quarantine"
  | Degrade -> "degrade"

(* The next-weaker evaluator of the demotion chain.  Fused demotes to the
   interpreted indexed evaluator: same index structures, no kernels. *)
let demotion = function
  | Fused -> Some Indexed
  | Parallel _ -> Some Indexed
  | Indexed -> Some Naive
  | Naive -> None

(* Durable-state telemetry (ambient registry, gated like the rest).  The
   checkpoint histogram's count is the number of checkpoints written. *)
let tel_journal_records = Telemetry.counter "persist.journal_records"
let tel_journal_bytes = Telemetry.counter "persist.journal_bytes"
let tel_recoveries = Telemetry.counter "persist.recoveries"
let tel_fallbacks = Telemetry.counter "persist.fallbacks"
let tel_replayed = Telemetry.counter "persist.replayed_ticks"
let tel_checkpoint_ns = Telemetry.histogram "persist.checkpoint_ns"

module Checkpoint = Sgl_persist.Checkpoint
module Journal = Sgl_persist.Journal
module Codec = Sgl_persist.Codec

(* Armed durable persistence: a journal record per committed tick, a new
   checkpoint generation every [p_every] ticks (0: only the generation
   written when arming). *)
type persistence = {
  p_dir : string;
  p_every : int;
  p_fsync : bool;
  mutable p_base : int; (* tick of the newest durable checkpoint *)
  mutable p_journal : Journal.writer option;
}

(* What one committed tick did: the published form of the step's ledger
   entry (below), handed to the observer (the flight recorder) right
   after the durability hooks, so a sample describes exactly the state a
   crash would recover to.  Built only while an observer is installed,
   because its digest is the one extra per-tick cost. *)
type tick_sample = {
  s_tick : int;
  s_units : int;
  s_digest : int; (* Codec.units_digest of the committed unit array *)
  s_tick_s : float; (* wall-clock of the whole step, retries included *)
  s_decision_s : float;
  s_post_s : float;
  s_movement_s : float;
  s_death_s : float;
  s_deaths : int;
  s_resurrections : int;
  s_faults : int;
  s_rollbacks : int;
  s_retries : int;
  s_demotions : int;
  s_index_builds : int;
  s_index_reuses : int;
  s_evaluator : string; (* evaluator that committed the tick *)
}

(* The engine's per-tick bookkeeping.  An entry is what one step's
   attempts did: phase wall-clock, engine counters and the evaluator's
   work.  A simulation's totals are the sum of the entries it has folded
   in: one per committed tick, plus the faults, rollbacks and work of a
   step whose policy re-raised.  [report], the journal's cumulative
   counts, the checkpoint counters and the live /metrics are views of the
   totals; a [tick_sample] is a view of one entry. *)
module Ledger = struct
  type t = {
    decision_s : float; (* includes index building; see [build_s] *)
    post_s : float;
    movement_s : float;
    death_s : float;
    deaths : int;
    resurrections : int;
    faults : int; (* faults observed (the bounded log may drop some) *)
    rollbacks : int; (* snapshot restores after a fault *)
    retries : int; (* tick retries performed by Degrade, one per demotion *)
    suppressed : int; (* secondary failures hidden by a re-raise *)
    index_builds : int;
    index_reuses : int;
    index_probes : int;
    naive_scans : int;
    uniform_hits : int;
    build_s : float;
  }

  let zero =
    { decision_s = 0.; post_s = 0.; movement_s = 0.; death_s = 0.; deaths = 0; resurrections = 0;
      faults = 0; rollbacks = 0; retries = 0; suppressed = 0; index_builds = 0; index_reuses = 0;
      index_probes = 0; naive_scans = 0; uniform_hits = 0; build_s = 0. }

  let add a b =
    {
      decision_s = a.decision_s +. b.decision_s;
      post_s = a.post_s +. b.post_s;
      movement_s = a.movement_s +. b.movement_s;
      death_s = a.death_s +. b.death_s;
      deaths = a.deaths + b.deaths;
      resurrections = a.resurrections + b.resurrections;
      faults = a.faults + b.faults;
      rollbacks = a.rollbacks + b.rollbacks;
      retries = a.retries + b.retries;
      suppressed = a.suppressed + b.suppressed;
      index_builds = a.index_builds + b.index_builds;
      index_reuses = a.index_reuses + b.index_reuses;
      index_probes = a.index_probes + b.index_probes;
      naive_scans = a.naive_scans + b.naive_scans;
      uniform_hits = a.uniform_hits + b.uniform_hits;
      build_s = a.build_s +. b.build_s;
    }

  let charge_phase e (phase : Fault.phase) (dt : float) =
    match phase with
    | Fault.Decision -> { e with decision_s = e.decision_s +. dt }
    | Fault.Post -> { e with post_s = e.post_s +. dt }
    | Fault.Movement -> { e with movement_s = e.movement_s +. dt }
    | Fault.Death -> { e with death_s = e.death_s +. dt }

  (* Charge the evaluator work done since [before], an earlier read of the
     same engine's counters. *)
  let charge_eval e ~(before : t) (s : Eval.eval_stats) =
    {
      e with
      index_builds = e.index_builds + s.Eval.index_builds - before.index_builds;
      index_reuses = e.index_reuses + s.Eval.index_reuses - before.index_reuses;
      index_probes = e.index_probes + s.Eval.index_probes - before.index_probes;
      naive_scans = e.naive_scans + s.Eval.naive_scans - before.naive_scans;
      uniform_hits = e.uniform_hits + s.Eval.uniform_hits - before.uniform_hits;
      build_s = e.build_s +. s.Eval.build_seconds -. before.build_s;
    }

  let of_eval (s : Eval.eval_stats) = charge_eval zero ~before:zero s
end

type t = {
  config : config;
  compiled : Exec.compiled;
  mutable engine : Exec.engine; (* replaced when [Degrade] demotes *)
  mutable evaluator : evaluator_kind;
  policy : fault_policy;
  prng : Prng.t;
  mutable units : Tuple.t array;
  (* Columnar mirror of [units] (struct-of-arrays, one typed column per
     schema attribute).  [units] stays authoritative; the mirror is
     refreshed copy-on-write at each commit point, keyed by the tick's
     dirty-attribute delta, and handed to the decision phase as the
     evaluators' and kernels' contiguous access path.  A faulting tick
     never refreshes it, so after rollback it still mirrors the restored
     unit array. *)
  store : Colstore.t;
  index_cache : bool; (* hand deltas to the evaluator across ticks *)
  (* What the last committed tick changed, relative to the unit array its
     decision phase saw.  Consumed by the next tick's [begin_tick]/
     [prepare]; cleared on rollback, so a retried or failed tick always
     reopens the cache cold rather than against a delta whose mutations
     were undone. *)
  mutable pending_delta : Delta.t option;
  (* Per-column CRCs behind the last state digest, tagged with the tick it
     was computed at.  Lets the next commit's digest recompute only the
     columns the tick dirtied (same [Delta] contract the columnar mirror's
     copy-on-write refresh trusts) and recombine the rest.  Dropped on
     restore; a missing or stale entry falls back to a full pass. *)
  mutable digest_cache : (int * Codec.digest_cache) option;
  mutable tick : int;
  (* The running sum of ledger entries.  Immutable and swapped whole, so
     a reader on another thread sees one consistent set of counters. *)
  mutable totals : Ledger.t;
  (* Per-step wall-clock, retries and durability hooks included; feeds
     the report's percentiles.  Locked: a live endpoint reads it from
     its own thread. *)
  tick_seconds : Stats.t;
  tick_lock : Mutex.t;
  (* The per-commit observer (None by default).  The engine never depends
     on what it does; nothing it can reach feeds back into unit state, so
     runs are bit-identical with and without one installed. *)
  mutable observer : (tick_sample -> unit) option;
  (* fault-tolerance state *)
  fault_log : Fault.Log.t;
  mutable phase : Fault.phase; (* the phase currently executing, for context *)
  mutable quarantined : string list; (* script groups excluded from future ticks *)
  mutable degradations : (int * string * string) list; (* tick, from, to *)
  mutable persist : persistence option; (* armed by [checkpoint_every] *)
}

let make_engine ~(schema : Schema.t) ~(aggregates : Aggregate.t array)
    ~(compiled : Exec.compiled) (evaluator : evaluator_kind) : Exec.engine =
  match evaluator with
  | Naive -> Exec.Seq (Eval.naive ~schema ~aggregates)
  | Indexed -> Exec.Seq (Eval.indexed ~schema ~aggregates ())
  | Parallel { domains } ->
    (* Pools are shared process-wide by size: repeated simulations reuse
       the same worker domains instead of exhausting the runtime's
       domain budget. *)
    let pool = Domain_pool.shared ~domains in
    let family = Eval.indexed_family ~schema ~aggregates ~chunks:(Domain_pool.size pool) () in
    Exec.Par { pool; family }
  | Fused ->
    (* Kernels specialize the plans, not the evaluator: the indexed
       evaluator underneath still owns aggregate evaluation, AoE
       combination and the cross-tick index cache.  The interval-fact
       folding oracle runs with untrusted schema ranges (the engine must
       stay correct on stores that violate the declared contracts), so it
       only discharges expressions that are constant on *every* store. *)
    let oracle = Sgl_analysis.Absint.make_oracle compiled.Exec.prog in
    Exec.Fus
      {
        evaluator = Eval.indexed ~schema ~aggregates ();
        kernels = Exec.fuse ~fold:oracle.Sgl_analysis.Absint.fold compiled;
      }

let create ?(fault_policy = Fail) ?(index_cache = true)
    (config : config) ~(evaluator : evaluator_kind) ~(units : Tuple.t array) : t =
  let schema = config.prog.Core_ir.schema in
  let aggregates = config.prog.Core_ir.aggregates in
  (* Interval facts for the optimizer's guard pruning.  Untrusted ranges:
     folding decisions must hold on any store, declared contracts or not.
     The cross-evaluator conformance harness and V002 validation (which
     discharges guards with this same prover) keep the hook honest. *)
  let oracle = Sgl_analysis.Absint.make_oracle config.prog in
  let compiled =
    Exec.compile ~optimize:config.optimize ~prove:oracle.Sgl_analysis.Absint.prove config.prog
  in
  {
    config;
    compiled;
    engine = make_engine ~schema ~aggregates ~compiled evaluator;
    evaluator;
    policy = fault_policy;
    prng = Prng.create config.seed;
    units = Array.map Tuple.copy units;
    (* decomposed into columns at build time; shares nothing with [units] *)
    store = Colstore.of_tuples schema units;
    index_cache;
    pending_delta = None;
    digest_cache = None;
    tick = 0;
    totals = Ledger.zero;
    tick_seconds = Stats.create ();
    tick_lock = Mutex.create ();
    observer = None;
    fault_log = Fault.Log.create ~capacity:64 ();
    phase = Fault.Decision;
    quarantined = [];
    degradations = [];
    persist = None;
  }

let schema t = t.config.prog.Core_ir.schema
let units t = t.units
let tick_count t = t.tick

(* Partition the current units into script groups. *)
let groups (t : t) : Exec.group list =
  let by_script : (string, int Varray.t) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  Array.iteri
    (fun i u ->
      match t.config.script_of u with
      | None -> ()
      | Some name -> begin
        match Hashtbl.find_opt by_script name with
        | Some bucket -> Varray.push bucket i
        | None ->
          let bucket = Varray.create 0 in
          Varray.push bucket i;
          Hashtbl.add by_script name bucket;
          order := name :: !order
      end)
    t.units;
  List.rev_map
    (fun name -> { Exec.script = name; members = Varray.to_array (Hashtbl.find by_script name) })
    !order
  |> List.filter (fun (g : Exec.group) -> not (List.mem g.Exec.script t.quarantined))

(* ------------------------------------------------------------------ *)
(* Fault bookkeeping *)

(* The live engine's evaluator counters ([Par]: summed over the family). *)
let engine_stats = function
  | Exec.Seq evaluator | Exec.Fus { evaluator; _ } -> evaluator.Eval.stats
  | Exec.Par { family; _ } -> Eval.family_stats family

let quarantine (t : t) (entry : Ledger.t ref) (gf : Exec.group_fault) : unit =
  if not (List.mem gf.Exec.gf_script t.quarantined) then
    t.quarantined <- t.quarantined @ [ gf.Exec.gf_script ];
  entry :=
    { !entry with
      faults = !entry.faults + 1;
      suppressed = !entry.suppressed + gf.Exec.gf_suppressed };
  Telemetry.Span.instant ~cat:"fault" "quarantine";
  Fault.Log.push t.fault_log
    (Fault.make ~tick:t.tick ~phase:Fault.Decision ~script:gf.Exec.gf_script
       ~evaluator:(evaluator_name t.evaluator) ~suppressed:gf.Exec.gf_suppressed gf.Exec.gf_exn
       gf.Exec.gf_backtrace)

(* Demote to the next-weaker evaluator.  The retired engine's work is
   already charged to the step's ledger entry, attempt by attempt. *)
let demote (t : t) (weaker : evaluator_kind) : unit =
  Telemetry.Span.instant ~cat:"fault" "demote";
  t.degradations <-
    t.degradations @ [ (t.tick, evaluator_name t.evaluator, evaluator_name weaker) ];
  let schema = t.config.prog.Core_ir.schema in
  t.engine <-
    make_engine ~schema ~aggregates:t.config.prog.Core_ir.aggregates ~compiled:t.compiled weaker;
  t.evaluator <- weaker

(* ------------------------------------------------------------------ *)
(* Durable state: snapshots and the commit journal *)

(* The deterministic engine counters a recovered run must agree on with an
   uninterrupted one.  Timings and index statistics are deliberately
   absent: they describe work done, not simulation state. *)
let counter_snapshot (t : t) : (string * int) list =
  [
    ("deaths", t.totals.Ledger.deaths);
    ("resurrections", t.totals.Ledger.resurrections);
    ("faults", t.totals.Ledger.faults);
    ("retries", t.totals.Ledger.retries);
    ("rollbacks", t.totals.Ledger.rollbacks);
    ("suppressed", t.totals.Ledger.suppressed);
  ]

let state_of (t : t) : Checkpoint.state =
  {
    Checkpoint.tick = t.tick;
    seed = t.config.seed;
    (* the counter-mode PRNG's position is (seed, tick): both are here *)
    cache_epoch = (if t.index_cache then t.tick else 0);
    units = t.units;
    quarantined = t.quarantined;
    counters = counter_snapshot t;
    degradations = t.degradations;
  }

(* CRC-32 of the canonical encoding of the current unit array — the
   fingerprint journal records and recovery differentials compare.

   Incremental: when the last digest describes the previous tick and the
   committed tick's delta summary is available and non-structural, only
   the dirtied columns are re-encoded; everything else recombines from
   the cached per-column CRCs.  Structural ticks (deaths, resurrections),
   rollbacks and cache-off runs fall back to the full pass, and recovery
   verification always recomputes from scratch, cross-checking the
   incremental path against the journaled values every replayed tick. *)
let state_digest (t : t) : int =
  match t.digest_cache with
  | Some (tick, cache) when tick = t.tick -> Codec.digest_of_cache cache
  | prev ->
    let cache =
      match (prev, t.pending_delta) with
      | Some (tick, cache), Some d when tick = t.tick - 1 && not (Delta.structural d) ->
        Codec.units_digest_incremental cache ~dirty:(Delta.dirty_attrs d) t.units
      | _ -> Codec.units_digest_cache t.units
    in
    t.digest_cache <- Some (t.tick, cache);
    Codec.digest_of_cache cache

(* Write a checkpoint generation now, then rotate the journal onto it.
   Ordering matters for crash safety: the new generation is durable before
   the old journal closes, so at every instant some checkpoint + journal
   chain reaches the last committed tick. *)
let checkpoint_now (t : t) : unit =
  match t.persist with
  | None -> invalid_arg "Simulation.checkpoint_now: persistence is not armed"
  | Some p ->
    Telemetry.Span.with_ ~cat:"persist" "checkpoint" @@ fun () ->
    let t0 = Timer.now_ns () in
    let (_ : string) = Checkpoint.save ~dir:p.p_dir ~fsync:p.p_fsync ~schema:(schema t) (state_of t) in
    Option.iter Journal.close p.p_journal;
    p.p_base <- t.tick;
    p.p_journal <- Some (Journal.create ~dir:p.p_dir ~base:t.tick ~fsync:p.p_fsync);
    Checkpoint.prune ~dir:p.p_dir ~keep:2;
    Telemetry.Histogram.observe tel_checkpoint_ns
      (Int64.to_float (Int64.sub (Timer.now_ns ()) t0))

(* One journal record for the tick that just committed. *)
let journal_commit (t : t) (p : persistence) : unit =
  match p.p_journal with
  | None -> ()
  | Some w ->
    let structural, dirty_attrs, dirty_keys =
      match t.pending_delta with
      | Some d -> (Delta.structural d, Delta.dirty_attrs d, Delta.dirty_key_count d)
      | None ->
        (* no summary recorded (cache off / rolled back): claim everything
           changed — over-reporting is sound, here as in the index cache *)
        (true, [], 0)
    in
    let before = Journal.bytes_written w in
    Journal.append w
      {
        Journal.j_tick = t.tick;
        j_units = Array.length t.units;
        j_digest = state_digest t;
        j_deaths = t.totals.Ledger.deaths;
        j_resurrections = t.totals.Ledger.resurrections;
        j_structural = structural;
        j_dirty_attrs = dirty_attrs;
        j_dirty_keys = dirty_keys;
      };
    Telemetry.Counter.incr tel_journal_records;
    Telemetry.Counter.add tel_journal_bytes (Journal.bytes_written w - before)

(* ------------------------------------------------------------------ *)
(* The tick *)

let seconds_since (t0 : int64) : float = Int64.to_float (Int64.sub (Timer.now_ns ()) t0) /. 1e9

(* Run one phase inside its span, charging its wall-clock to the step's
   entry whether it returns or raises: a failed attempt's time still
   counts. *)
let timed_phase (t : t) (entry : Ledger.t ref) (phase : Fault.phase) (f : unit -> 'a) : 'a =
  t.phase <- phase;
  Telemetry.Span.with_ ~cat:"phase" (Fault.phase_name phase) @@ fun () ->
  let t0 = Timer.now_ns () in
  match f () with
  | result ->
    entry := Ledger.charge_phase !entry phase (seconds_since t0);
    result
  | exception exn ->
    let bt = Printexc.get_raw_backtrace () in
    entry := Ledger.charge_phase !entry phase (seconds_since t0);
    Printexc.raise_with_backtrace exn bt

(* One attempt at the tick's phases.  Raises whatever a phase raises; on
   success [t.units] holds the post-tick state, the tick counter has
   advanced and [entry] carries the tick's deaths and resurrections.
   Crucially for the transactional wrapper in [step], nothing here
   mutates the pre-tick state: plans work on full-width row copies,
   post-processing copies every row before updating it, movement and
   resurrection mutate only those copies, and [t.units] is swapped as the
   last action of the attempt. *)
let run_phases (t : t) (entry : Ledger.t ref) : unit =
  let sch = schema t in
  let tick = t.tick in
  let rand_for ~key i = Prng.script_random t.prng ~tick ~key i in
  (* The incoming delta (what the previous committed tick changed) keeps
     the evaluator's index cache warm; the outgoing one records what this
     tick changes, for the next.  With the cache disabled neither exists
     and every tick opens cold. *)
  let delta_in = if t.index_cache then t.pending_delta else None in
  let delta_out = if t.index_cache then Some (Delta.create sch) else None in
  (* The columnar mirror is committed alongside [t.units]; mid-restore or
     after a half-applied refresh it may not cover the array, in which
     case the tick simply runs on boxed reads. *)
  let cols =
    if Colstore.length t.store = Array.length t.units && Colstore.rectangular t.store then
      Some t.store
    else None
  in
  (* decision + action; under [Quarantine_script] every group runs
     isolated, so a failing one contributes an empty effect bag this tick
     and is excluded from future ones *)
  let acc =
    timed_phase t entry Fault.Decision (fun () ->
        let acc, faults =
          Exec.execute ?delta:delta_in ?cols t.compiled t.engine
            ~isolate:(t.policy = Quarantine_script) ~units:t.units ~groups:(groups t) ~rand_for
        in
        List.iter (quarantine t entry) faults;
        acc)
  in
  (* post-processing *)
  let results =
    timed_phase t entry Fault.Post (fun () ->
        Postprocess.apply ?delta:delta_out t.config.postprocess ~schema:sch ~rand_for
          ~units:t.units ~acc)
  in
  let alive = Varray.create [||] and dead = Varray.create [||] in
  Array.iter
    (fun (row, survived) -> if survived then Varray.push alive row else Varray.push dead row)
    results;
  let alive_units = Varray.to_array alive in
  (* movement over the survivors *)
  let grid =
    timed_phase t entry Fault.Movement (fun () ->
        Option.map
          (fun mconfig ->
            Movement.run ?delta:delta_out mconfig ~schema:sch ~prng:t.prng ~tick
              ~units:alive_units ~acc)
          t.config.movement)
  in
  (* death handling *)
  let final, revived =
    timed_phase t entry Fault.Death (fun () ->
        match t.config.death with
        | Remove -> (alive_units, 0)
        | Resurrect { health; max_health } ->
          let revived =
            Array.map
              (fun row ->
                let out = Tuple.copy row in
                Tuple.set out health (Tuple.get out max_health);
                (match (grid, t.config.movement) with
                | Some g, Some mconfig -> begin
                  let key = Tuple.key sch out in
                  match Movement.random_free_cell g t.prng ~tick ~salt:key with
                  | Some (x, y) ->
                    Tuple.set out mconfig.Movement.posx (Value.Float (float_of_int x));
                    Tuple.set out mconfig.Movement.posy (Value.Float (float_of_int y));
                    Movement.move_unit g ~key
                      ~from_:
                        ( Value.to_int (Tuple.get row mconfig.Movement.posx),
                          Value.to_int (Tuple.get row mconfig.Movement.posy) )
                      ~to_:(x, y)
                  | None -> ()
                end
                | _ -> ());
                out)
              (Varray.to_array dead)
          in
          (Array.append alive_units revived, Array.length revived))
  in
  (* Any death reorders or re-populates the array, so positional data ids
     stop naming the same units: structural.  (Resurrection also rewrites
     health and positions, which structural subsumes.) *)
  if Varray.length dead > 0 then Option.iter Delta.record_structural delta_out;
  t.units <- final;
  (* Commit the columnar mirror copy-on-write: clean columns (per the
     tick's dirty-attribute summary) keep their arrays, dirty ones rebuild
     into fresh arrays.  Runs only on the success path — a faulting tick
     leaves the mirror on the pre-tick state the rollback restores. *)
  Colstore.refresh ?delta:delta_out t.store final;
  t.pending_delta <- delta_out;
  t.tick <- t.tick + 1;
  (* last: a rollback never has deaths to take back *)
  entry := { !entry with deaths = Varray.length dead; resurrections = revived }

(* Transactional tick.  The pre-tick state is the unit array (whose rows
   no phase mutates in place; see [run_phases]); the step's counters live
   in its own ledger entry and reach the totals only when the step ends,
   so the snapshot is O(1) and the fault-free path pays only the
   exception handler.  On a fault: restore the snapshot, log the fault
   with full context, then apply the policy.  [Degrade] retries the tick
   under the next-weaker evaluator; since every PRNG draw is keyed by
   [~tick ~key], the retry is bit-identical to a healthy run of that
   evaluator. *)
let step (t : t) : unit =
  let t_start = Timer.now_ns () in
  let units0 = t.units in
  let entry = ref Ledger.zero in
  let rec attempt () =
    let engine = t.engine in
    let before = Ledger.of_eval (engine_stats engine) in
    let outcome =
      (* The tick's root span; the per-tick name is built only when the
         tracer is on, so the disabled path stays allocation-free. *)
      match
        if Telemetry.Span.enabled () then
          Telemetry.Span.with_ ~cat:"sim" (Printf.sprintf "tick:%d" t.tick) (fun () ->
              run_phases t entry)
        else run_phases t entry
      with
      | () -> None
      | exception exn -> Some (exn, Printexc.get_raw_backtrace ())
    in
    entry := Ledger.charge_eval !entry ~before (engine_stats engine);
    match outcome with
    | None -> ()
    | Some (exn, bt) ->
      let suppressed =
        match t.engine with
        | Exec.Par { pool; _ } -> Domain_pool.suppressed_failures pool
        | Exec.Seq _ | Exec.Fus _ -> 0
      in
      let fault =
        Fault.make ~tick:t.tick ~phase:t.phase ~evaluator:(evaluator_name t.evaluator)
          ~suppressed exn bt
      in
      Fault.Log.push t.fault_log fault;
      Telemetry.Span.instant ~cat:"fault" "rollback";
      t.units <- units0;
      (* Swap the mirror's column pointers back to the restored state.
         Usually a no-op rebuild of identical content (the failed attempt
         never reached the commit refresh), but it also repairs a refresh
         that itself faulted half-way. *)
      Colstore.refresh t.store units0;
      entry :=
        { !entry with
          faults = !entry.faults + 1;
          suppressed = !entry.suppressed + suppressed;
          rollbacks = !entry.rollbacks + 1 };
      (* The failed attempt's mutations were undone, so its delta (and the
         one it consumed) no longer describe reality: the retry — and the
         tick after a policy absorbs the fault — must open the index cache
         cold.  The epoch stamp makes any structure the failed attempt
         left behind read as a miss. *)
      t.pending_delta <- None;
      let fail () =
        (* no tick commits, but the step's faults, rollbacks and work
           happened *)
        t.totals <- Ledger.add t.totals !entry;
        Printexc.raise_with_backtrace (Fault.Error fault) bt
      in
      (match t.policy with
      | Fail -> fail ()
      | Quarantine_script ->
        (* group faults were absorbed by the guards; anything reaching here
           is not attributable to one script, so quarantine cannot help *)
        fail ()
      | Degrade -> begin
        match demotion t.evaluator with
        | None -> fail ()
        | Some weaker ->
          demote t weaker;
          entry := { !entry with retries = !entry.retries + 1 };
          attempt ()
      end)
  in
  attempt ();
  let entry = !entry in
  (* The totals advance at commit, before the journal record that carries
     the cumulative deaths. *)
  t.totals <- Ledger.add t.totals entry;
  (* Durability hooks run only for a committed tick: a failed attempt was
     rolled back before the policy re-raised, so the journal never sees a
     state the simulation did not keep. *)
  (match t.persist with
  | None -> ()
  | Some p ->
    journal_commit t p;
    if p.p_every > 0 && t.tick - p.p_base >= p.p_every then checkpoint_now t);
  let tick_s = seconds_since t_start in
  Mutex.protect t.tick_lock (fun () -> Stats.add t.tick_seconds tick_s);
  (* The observer runs last, after the durability hooks: its sample
     describes a tick the journal has already committed, so a flight
     record never gets ahead of recoverable state. *)
  match t.observer with
  | None -> ()
  | Some f ->
    f
      {
        s_tick = t.tick;
        s_units = Array.length t.units;
        s_digest = state_digest t;
        s_tick_s = tick_s;
        s_decision_s = entry.Ledger.decision_s;
        s_post_s = entry.Ledger.post_s;
        s_movement_s = entry.Ledger.movement_s;
        s_death_s = entry.Ledger.death_s;
        s_deaths = entry.Ledger.deaths;
        s_resurrections = entry.Ledger.resurrections;
        s_faults = entry.Ledger.faults;
        s_rollbacks = entry.Ledger.rollbacks;
        s_retries = entry.Ledger.retries;
        s_demotions = entry.Ledger.retries;
        s_index_builds = entry.Ledger.index_builds;
        s_index_reuses = entry.Ledger.index_reuses;
        s_evaluator = evaluator_name t.evaluator;
      }

let run (t : t) ~(ticks : int) : unit =
  (* Fix the target tick up front: [step] can grow or shrink [t.units]
     (death, resurrection), and the bound must not depend on anything a
     tick mutates. *)
  let target = t.tick + ticks in
  while t.tick < target do
    step t
  done

(* ------------------------------------------------------------------ *)
(* Durable state: arming and recovery *)

let checkpoint_every ?(fsync = true) (t : t) ~(dir : string) ~(every : int) : unit =
  (match t.persist with
  | Some p ->
    Option.iter Journal.close p.p_journal;
    p.p_journal <- None
  | None -> ());
  t.persist <- Some { p_dir = dir; p_every = every; p_fsync = fsync;
                      p_base = t.tick; p_journal = None };
  (* an initial durable generation, so recovery always has a base *)
  checkpoint_now t

let detach_persistence (t : t) : unit =
  match t.persist with
  | None -> ()
  | Some p ->
    Option.iter Journal.close p.p_journal;
    p.p_journal <- None;
    t.persist <- None

type restore_info = {
  restored_tick : int; (* the checkpoint generation recovery loaded *)
  replayed : int; (* journal ticks re-executed on top of it *)
  generations_skipped : int; (* newer generations rejected as corrupt/unreadable *)
  journal_torn : bool; (* the journal chain ended in a torn record *)
}

(* Recovery: newest valid checkpoint generation + deterministic replay of
   the journal chain.  Replay re-executes [step] — every PRNG draw is a
   pure function of (seed, tick, key, i), so the re-run is bit-identical
   to the crashed one — and each replayed tick is verified against the
   journaled fingerprint before the next is attempted. *)
let restore ?fault_policy ?index_cache (config : config)
    ~(evaluator : evaluator_kind) ~(dir : string) : (t * restore_info, string) result =
  let schema = config.prog.Core_ir.schema in
  match Checkpoint.load_latest ~schema ~dir with
  | Error e -> Error e
  | Ok (st, generations_skipped) ->
    if st.Checkpoint.seed <> config.seed then
      Error
        (Printf.sprintf "checkpoint was taken under seed %d, config has seed %d — replay would diverge"
           st.Checkpoint.seed config.seed)
    else begin
      let t =
        create ?fault_policy ?index_cache config ~evaluator
          ~units:st.Checkpoint.units
      in
      t.tick <- st.Checkpoint.tick;
      t.quarantined <- st.Checkpoint.quarantined;
      t.degradations <- st.Checkpoint.degradations;
      let counter name =
        Option.value ~default:0 (List.assoc_opt name st.Checkpoint.counters)
      in
      t.totals <-
        {
          Ledger.zero with
          deaths = counter "deaths";
          resurrections = counter "resurrections";
          faults = counter "faults";
          retries = counter "retries";
          rollbacks = counter "rollbacks";
          suppressed = counter "suppressed";
        };
      (* Replay the journal chain: every journal whose base is at or after
         the loaded generation, oldest first.  The chain exists because
         rotation happens at checkpoint time — journal [base=B] covers
         exactly the ticks between generation B and the next one. *)
      let bases =
        if Sys.file_exists dir then
          Sys.readdir dir |> Array.to_list
          |> List.filter_map Journal.base_of_filename
          |> List.filter (fun b -> b >= st.Checkpoint.tick)
          |> List.sort compare
        else []
      in
      let replayed = ref 0 and torn = ref false and error = ref None in
      let verify (e : Journal.entry) =
        if Array.length t.units <> e.Journal.j_units
           || Codec.units_digest t.units <> e.Journal.j_digest
           || t.totals.Ledger.deaths <> e.Journal.j_deaths
           || t.totals.Ledger.resurrections <> e.Journal.j_resurrections
        then
          error :=
            Some
              (Printf.sprintf
                 "replay diverged at tick %d: journal has units=%d digest=%08x, replay produced units=%d digest=%08x"
                 e.Journal.j_tick e.Journal.j_units e.Journal.j_digest (Array.length t.units)
                 (Codec.units_digest t.units))
      in
      (try
         List.iter
           (fun base ->
             if !error = None && not !torn then begin
               let entries, t_torn = Journal.read ~dir ~base in
               List.iter
                 (fun (e : Journal.entry) ->
                   if !error = None && not !torn then
                     if e.Journal.j_tick <= t.tick then () (* already in the snapshot *)
                     else if e.Journal.j_tick = t.tick + 1 then begin
                       Telemetry.Span.with_ ~cat:"persist" "replay" (fun () -> step t);
                       incr replayed;
                       verify e
                     end
                     else
                       (* a gap means records are missing: stop like a tear
                          rather than replay past unverifiable ticks *)
                       torn := true)
                 entries;
               if t_torn then torn := true
             end)
           bases
       with
      | Codec.Corrupt msg -> error := Some (Printf.sprintf "journal unreadable: %s" msg)
      | Fault.Error f -> error := Some (Printf.sprintf "fault during replay: %s" (Fmt.str "%a" Fault.pp f))
      | Fault_inject.Injected { point; count } ->
        error := Some (Printf.sprintf "injected read fault at %s (call %d)" point count));
      match !error with
      | Some e -> Error e
      | None ->
        Telemetry.Counter.incr tel_recoveries;
        Telemetry.Counter.add tel_fallbacks generations_skipped;
        Telemetry.Counter.add tel_replayed !replayed;
        Ok
          ( t,
            {
              restored_tick = st.Checkpoint.tick;
              replayed = !replayed;
              generations_skipped;
              journal_torn = !torn;
            } )
    end

(* ------------------------------------------------------------------ *)
(* Reporting *)

type report = {
  ticks : int;
  n_units : int;
  decision_s : float;
  build_s : float; (* portion of decision spent building indexes *)
  post_s : float;
  movement_s : float;
  death_s : float;
  total_s : float;
  index_builds : int;
  index_probes : int;
  naive_scans : int;
  uniform_hits : int;
  index_reuses : int; (* structures the cross-tick cache carried over *)
  deaths : int;
  resurrections : int;
  faults : int; (* faults observed, including any the bounded log dropped *)
  retries : int; (* tick retries performed by the Degrade policy *)
  rollbacks : int; (* snapshot restores performed after faults *)
  suppressed : int; (* secondary failures hidden behind re-raised ones *)
  quarantined : string list;
  degradations : (int * string * string) list; (* tick, from, to *)
  tick_p50_s : float; (* per-step wall-clock percentiles ([tick_seconds]) *)
  tick_p90_s : float;
  tick_p99_s : float;
}

let faults (t : t) : Fault.t list = Fault.Log.to_list t.fault_log
let fault_count (t : t) : int = t.totals.Ledger.faults
let quarantined_scripts (t : t) : string list = t.quarantined
let degradations (t : t) : (int * string * string) list = t.degradations
let retries (t : t) : int = t.totals.Ledger.retries
let current_evaluator (t : t) : evaluator_kind = t.evaluator

let tick_seconds (t : t) : Telemetry.histogram_snapshot =
  Mutex.protect t.tick_lock (fun () -> Telemetry.summarize t.tick_seconds)

(* Install (or remove) the per-commit observer.  Single slot: the flight
   recorder composes the fan-out itself. *)
let set_observer (t : t) (f : (tick_sample -> unit) option) : unit = t.observer <- f

(* The delta the last committed tick recorded (None before the first tick,
   after a rollback, or with the cache disabled).  Exposed so differential
   tests can check it against the ground-truth [Delta.of_tuples]. *)
let last_delta (t : t) : Delta.t option = t.pending_delta

let report (t : t) : report =
  let l = t.totals in
  let ts = tick_seconds t in
  {
    ticks = t.tick;
    n_units = Array.length t.units;
    decision_s = l.Ledger.decision_s;
    build_s = l.Ledger.build_s;
    post_s = l.Ledger.post_s;
    movement_s = l.Ledger.movement_s;
    death_s = l.Ledger.death_s;
    total_s = l.Ledger.decision_s +. l.Ledger.post_s +. l.Ledger.movement_s +. l.Ledger.death_s;
    index_builds = l.Ledger.index_builds;
    index_probes = l.Ledger.index_probes;
    naive_scans = l.Ledger.naive_scans;
    uniform_hits = l.Ledger.uniform_hits;
    index_reuses = l.Ledger.index_reuses;
    deaths = l.Ledger.deaths;
    resurrections = l.Ledger.resurrections;
    faults = l.Ledger.faults;
    retries = l.Ledger.retries;
    rollbacks = l.Ledger.rollbacks;
    suppressed = l.Ledger.suppressed;
    quarantined = t.quarantined;
    degradations = t.degradations;
    tick_p50_s = ts.Telemetry.p50;
    tick_p90_s = ts.Telemetry.p90;
    tick_p99_s = ts.Telemetry.p99;
  }

let pp_report ppf (r : report) =
  Fmt.pf ppf
    "@[<v>ticks=%d units=%d total=%.3fs (decision=%.3fs [build=%.3fs] post=%.3fs move=%.3fs \
     death=%.3fs)@,tick p50=%.2fms p90=%.2fms p99=%.2fms@,builds=%d reuses=%d probes=%d scans=%d \
     uniform=%d deaths=%d resurrections=%d"
    r.ticks r.n_units r.total_s r.decision_s r.build_s r.post_s r.movement_s r.death_s
    (r.tick_p50_s *. 1e3) (r.tick_p90_s *. 1e3) (r.tick_p99_s *. 1e3) r.index_builds
    r.index_reuses r.index_probes r.naive_scans r.uniform_hits r.deaths r.resurrections;
  (* fault-free runs keep the pre-fault-layer report byte-identical *)
  if r.faults > 0 || r.retries > 0 || r.quarantined <> [] || r.degradations <> [] then
    Fmt.pf ppf "@,faults=%d retries=%d rollbacks=%d suppressed=%d quarantined=[%s] degraded=[%s]"
      r.faults r.retries r.rollbacks r.suppressed
      (String.concat "," r.quarantined)
      (String.concat ","
         (List.map (fun (tick, from_, to_) -> Fmt.str "t%d:%s->%s" tick from_ to_) r.degradations));
  Fmt.pf ppf "@]"
