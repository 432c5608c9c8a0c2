(* The benchmark harness: regenerates every experiment in the paper's
   evaluation (Section 6) plus the ablations DESIGN.md commits to.

     dune exec bench/main.exe            -- quick pass over everything
     dune exec bench/main.exe -- full    -- the paper-scale sweeps
     dune exec bench/main.exe -- fig10 capacity density \
         ablate-divisible ablate-sweep ablate-nn ablate-combine ablate-share \
         phases parallel incremental fused faults micro
     dune exec bench/main.exe -- counts  -- the deterministic counts gate

   Sections ending in -full (fig10, parallel, incremental, fused) run the
   larger sweeps.  [counts] prints work counts, not timings, and is not
   part of the quick pass (see [counts] below).  Per-layer timings of a
   tick live in perfbench/.

   Absolute numbers differ from the paper's 2 GHz Core Duo C++ engine; the
   *shape* is what reproduces: the naive evaluator is quadratic in the unit
   count, the indexed evaluator is n log n, the crossover sits at tiny army
   sizes, and the gap passes an order of magnitude by several hundred
   units.  EXPERIMENTS.md records paper-vs-measured for each experiment. *)

open Sgl

let pr = Fmt.pr
let line () = pr "%s@." (String.make 78 '-')

let header title =
  pr "@.";
  line ();
  pr "%s@." title;
  line ()

(* ------------------------------------------------------------------ *)
(* Shared battle-driving helpers *)

(* Per-tick decision+action+post+move seconds of a battle simulation. *)
let battle_seconds ~(evaluator : Simulation.evaluator_kind) ~(n : int) ~(density : float)
    ~(ticks : int) : float * Simulation.report =
  let scenario =
    Battle.Scenario.setup ~density ~per_side:(Battle.Scenario.standard_mix (n / 2)) ()
  in
  let sim = Battle.Scenario.simulation ~evaluator scenario in
  (* warm one tick outside the clock so compilation noise stays out *)
  Simulation.step sim;
  let (), seconds = Timer.timed (fun () -> Simulation.run sim ~ticks) in
  (seconds /. float_of_int ticks, Simulation.report sim)

(* How many ticks to average over, given how slow one tick will be. *)
let ticks_for ~evaluator ~n =
  match evaluator with
  | Simulation.Naive -> if n >= 4000 then 2 else if n >= 1000 then 3 else 10
  | Simulation.Indexed | Simulation.Parallel _ | Simulation.Fused ->
    if n >= 8000 then 3 else 10

(* ------------------------------------------------------------------ *)
(* Figure 10: total time versus number of units, naive vs indexed *)

let fig10 ~full () =
  header
    "Figure 10 - total time for 500 clock ticks vs number of units (1% density)";
  pr "(per-tick time measured, scaled to the paper's 500 ticks)@.@.";
  let naive_sizes = if full then [ 250; 500; 1000; 2000; 4000; 8000 ] else [ 250; 500; 1000; 2000 ] in
  let indexed_sizes =
    if full then [ 250; 500; 1000; 2000; 4000; 8000; 12000; 14000 ]
    else [ 250; 500; 1000; 2000; 4000; 8000; 12000 ]
  in
  let measure evaluator n =
    let per_tick, _ = battle_seconds ~evaluator ~n ~density:0.01 ~ticks:(ticks_for ~evaluator ~n) in
    per_tick *. 500.
  in
  let naive = List.map (fun n -> (n, measure Simulation.Naive n)) naive_sizes in
  let indexed = List.map (fun n -> (n, measure Simulation.Indexed n)) indexed_sizes in
  pr "%8s %18s %18s %10s@." "units" "naive (s/500t)" "indexed (s/500t)" "speedup";
  List.iter
    (fun (n, ti) ->
      match List.assoc_opt n naive with
      | Some tn -> pr "%8d %18.2f %18.2f %9.1fx@." n tn ti (tn /. ti)
      | None -> pr "%8d %18s %18.2f %10s@." n "-" ti "-")
    indexed;
  (* the paper's shape claims, verified numerically *)
  let ratio series a b =
    match (List.assoc_opt a series, List.assoc_opt b series) with
    | Some ta, Some tb -> tb /. ta
    | _ -> nan
  in
  pr "@.growth when units double (1000 -> 2000): naive %.1fx (quadratic ~4x), indexed %.1fx (n log n ~2x)@."
    (ratio naive 1000 2000) (ratio indexed 1000 2000)

(* ------------------------------------------------------------------ *)
(* Section 6.1 capacity: largest army at >= 10 ticks per second *)

let capacity ~full () =
  header "Section 6.1 - capacity at 10 ticks/second (tick budget 100 ms)";
  let budget = 0.1 in
  let max_probe evaluator = match (evaluator, full) with
    | Simulation.Naive, false -> 4_000
    | Simulation.Naive, true -> 16_000
    | (Simulation.Indexed | Simulation.Parallel _ | Simulation.Fused), false -> 32_000
    | (Simulation.Indexed | Simulation.Parallel _ | Simulation.Fused), true -> 64_000
  in
  let tick_time evaluator n =
    let per_tick, _ = battle_seconds ~evaluator ~n ~density:0.01 ~ticks:2 in
    per_tick
  in
  let find evaluator =
    let cap = max_probe evaluator in
    (* double until over budget (or the probe cap), then bisect *)
    let rec grow n = if n >= cap || tick_time evaluator n > budget then n else grow (n * 2) in
    let hi = grow 125 in
    if hi >= cap && tick_time evaluator cap <= budget then (cap, true)
    else begin
      let rec bisect lo hi =
        if hi - lo <= max 8 (lo / 16) then lo
        else begin
          let mid = (lo + hi) / 2 in
          if tick_time evaluator mid <= budget then bisect mid hi else bisect lo mid
        end
      in
      (bisect (hi / 2) hi, false)
    end
  in
  let report name evaluator =
    let n, capped = find evaluator in
    pr "%-8s sustains 10 ticks/s up to ~%d units%s@." name n
      (if capped then " (probe cap reached; the true capacity is higher)" else "")
  in
  report "naive" Simulation.Naive;
  report "indexed" Simulation.Indexed;
  pr "@.(paper, 2 GHz C++: naive < 1100 units, indexed > 12000; the ~10x ratio@.";
  pr " between the two capacities is the reproducible claim)@."

(* ------------------------------------------------------------------ *)
(* Section 6.1 density sweep: 500 units, density 0.5% .. 8% *)

let density_sweep () =
  header "Section 6.1 - unit density sweep (500 units, 5 ticks each)";
  pr "%10s %16s %16s@." "density" "naive (s/tick)" "indexed (s/tick)";
  List.iter
    (fun d ->
      let tn, _ = battle_seconds ~evaluator:Simulation.Naive ~n:500 ~density:d ~ticks:5 in
      let ti, _ = battle_seconds ~evaluator:Simulation.Indexed ~n:500 ~density:d ~ticks:5 in
      pr "%9.1f%% %16.4f %16.4f@." (d *. 100.) tn ti)
    [ 0.005; 0.01; 0.02; 0.04; 0.08 ];
  pr "@.(the paper reports neither algorithm is particularly sensitive to density)@."

(* ------------------------------------------------------------------ *)
(* Ablation machinery: evaluate one aggregate instance over a random
   integer-lattice point set through the real evaluator plumbing. *)

let ablation_schema () =
  Schema.create
    [
      Schema.attr "key" Value.TInt;
      Schema.attr "player" Value.TInt;
      Schema.attr "posx" Value.TFloat;
      Schema.attr "posy" Value.TFloat;
      Schema.attr "health" Value.TFloat;
      Schema.attr "range" Value.TFloat;
      Schema.attr ~tag:Schema.Sum "damage" Value.TFloat;
    ]

let ablation_units ?side schema ~n ~range =
  let prng = Prng.create 99 in
  let side =
    match side with
    | Some s -> s
    | None -> int_of_float (sqrt (float_of_int n /. 0.01))
  in
  Array.init n (fun i ->
      Tuple.of_list schema
        [
          Value.Int i;
          Value.Int (i mod 2);
          Value.Float (float_of_int (Prng.int prng ~bound:side [ i; 1 ]));
          Value.Float (float_of_int (Prng.int prng ~bound:side [ i; 2 ]));
          Value.Float (float_of_int (10 + Prng.int prng ~bound:90 [ i; 3 ]));
          Value.Float range;
          Value.Float 0.;
        ])

(* Time evaluating [agg] once for every unit (all units probe). *)
let time_agg_batch ~schema ~units (agg : Aggregate.t) ~(kind : [ `Naive | `Indexed ]) : float =
  let aggregates = [| agg |] in
  let ev =
    match kind with
    | `Naive -> Eval.naive ~schema ~aggregates
    | `Indexed -> Eval.indexed ~schema ~aggregates ()
  in
  ev.Eval.begin_tick units;
  let rands = Array.map (fun _ -> fun (_ : int) -> 0) units in
  let (), seconds =
    Timer.timed (fun () -> ignore (ev.Eval.eval_agg ~agg_id:0 ~rows:units ~rands))
  in
  seconds

let box_where ~range_expr =
  let open Expr in
  [
    Cmp (Ge, EAttr 2, Binop (Sub, UAttr 2, range_expr));
    Cmp (Le, EAttr 2, Binop (Add, UAttr 2, range_expr));
    Cmp (Ge, EAttr 3, Binop (Sub, UAttr 3, range_expr));
    Cmp (Le, EAttr 3, Binop (Add, UAttr 3, range_expr));
    Cmp (Ne, EAttr 1, UAttr 1);
  ]

(* A1: prefix-aggregate leaves vs enumerate-the-box vs full scan. *)
let ablate_divisible () =
  header "Ablation A1 - divisible aggregate: prefix leaves vs enumeration vs scan";
  pr "(count of enemies in a 240-wide box on a fixed 300x300 battlefield: the@.";
  pr " dense-combat regime where the box holds a constant fraction of the army,@.";
  pr " so the enumeration term k grows linearly with n)@.@.";
  let schema = ablation_schema () in
  let range = 120. in
  let fast =
    Aggregate.make ~name:"count_box" ~kinds:[ Aggregate.Count ]
      ~where_:(box_where ~range_expr:(Expr.Const (Value.Float range))) ()
  in
  (* semantically identical, but the tautological residual mentions both u
     and e, so the planner must take the enumerate-and-filter path *)
  let tautology =
    Expr.Cmp
      ( Expr.Gt,
        Expr.Binop (Expr.Add, Expr.EAttr 4, Expr.Binop (Expr.Mul, Expr.UAttr 2, Expr.Const (Value.Float 0.))),
        Expr.Const (Value.Float 0.) )
  in
  let enum =
    Aggregate.make ~name:"count_box_enum" ~kinds:[ Aggregate.Count ]
      ~where_:(tautology :: box_where ~range_expr:(Expr.Const (Value.Float range)))
      ()
  in
  pr "%8s %14s %14s %14s@." "units" "prefix (s)" "enumerate (s)" "scan (s)";
  List.iter
    (fun n ->
      let units = ablation_units ~side:300 schema ~n ~range in
      let t_fast = time_agg_batch ~schema ~units fast ~kind:`Indexed in
      let t_enum = time_agg_batch ~schema ~units enum ~kind:`Indexed in
      let t_scan = time_agg_batch ~schema ~units fast ~kind:`Naive in
      pr "%8d %14.4f %14.4f %14.4f@." n t_fast t_enum t_scan)
    [ 1000; 2000; 4000; 8000 ];
  pr "@.(enumeration pays O(k) per probe once boxes fill up - the \"k is large\"@.";
  pr " argument of Section 5.3.1; prefix leaves stay polylogarithmic)@."

(* A2: sweep-line min/max vs enumeration vs scan. *)
let ablate_sweep () =
  header "Ablation A2 - constant-range ARGMIN: sweep-line vs enumeration vs scan";
  let schema = ablation_schema () in
  let range = 25. in
  let mk range_expr name =
    Aggregate.make ~name
      ~kinds:[ Aggregate.Arg_min { objective = Expr.EAttr 4; result = Expr.EAttr 0 } ]
      ~where_:(box_where ~range_expr)
      ~default:(Expr.Const (Value.Int (-1)))
      ()
  in
  (* constant range -> sweep; the same range read from an attribute is not
     provably constant, so the planner falls back to enumeration *)
  let sweep = mk (Expr.Const (Value.Float range)) "weakest_const" in
  let enum = mk (Expr.UAttr 5) "weakest_attr" in
  pr "%8s %14s %14s %14s@." "units" "sweep (s)" "enumerate (s)" "scan (s)";
  List.iter
    (fun n ->
      let units = ablation_units schema ~n ~range in
      let t_sweep = time_agg_batch ~schema ~units sweep ~kind:`Indexed in
      let t_enum = time_agg_batch ~schema ~units enum ~kind:`Indexed in
      let t_scan = time_agg_batch ~schema ~units sweep ~kind:`Naive in
      pr "%8d %14.4f %14.4f %14.4f@." n t_sweep t_enum t_scan)
    [ 1000; 2000; 4000; 8000 ]

(* A3: kD-tree nearest neighbour vs scan. *)
let ablate_nn () =
  header "Ablation A3 - nearest enemy: kD-tree vs scan";
  let schema = ablation_schema () in
  let nearest =
    Aggregate.make ~name:"nearest_enemy"
      ~kinds:
        [
          Aggregate.Nearest
            {
              ex = Expr.EAttr 2;
              ey = Expr.EAttr 3;
              ux = Expr.UAttr 2;
              uy = Expr.UAttr 3;
              result = Expr.EAttr 0;
            };
        ]
      ~where_:[ Expr.Cmp (Expr.Ne, Expr.EAttr 1, Expr.UAttr 1) ]
      ~default:(Expr.Const (Value.Int (-1)))
      ()
  in
  pr "%8s %14s %14s %10s@." "units" "kd-tree (s)" "scan (s)" "speedup";
  List.iter
    (fun n ->
      let units = ablation_units schema ~n ~range:25. in
      let t_kd = time_agg_batch ~schema ~units nearest ~kind:`Indexed in
      let t_scan = time_agg_batch ~schema ~units nearest ~kind:`Naive in
      pr "%8d %14.4f %14.4f %9.1fx@." n t_kd t_scan (t_scan /. t_kd))
    [ 1000; 2000; 4000; 8000 ]

(* A5: Section 5.4 - combining area effects via an effect-center index. *)
let ablate_combine () =
  header "Ablation A5 - area-of-effect combination: effect-center index vs pairwise";
  pr "(every unit projects a healing aura every tick: the worst case for (+))@.@.";
  let schema =
    Schema.create
      [
        Schema.attr "key" Value.TInt;
        Schema.attr "player" Value.TInt;
        Schema.attr "posx" Value.TFloat;
        Schema.attr "posy" Value.TFloat;
        Schema.attr ~tag:Schema.Max "inaura" Value.TFloat;
      ]
  in
  let source =
    {|
action Aura(u) {
  on all(u.player = e.player
         and e.posx >= u.posx - 8.0 and e.posx <= u.posx + 8.0
         and e.posy >= u.posy - 8.0 and e.posy <= u.posy + 8.0) {
    inaura <- 5;
  }
}
script healer(u) { perform Aura(u); }
|}
  in
  let prog = compile ~schema source in
  let compiled = Exec.compile prog in
  let run kind n =
    let prng = Prng.create 5 in
    let side = int_of_float (sqrt (float_of_int n /. 0.02)) in
    let units =
      Array.init n (fun i ->
          Tuple.of_list schema
            [
              Value.Int i;
              Value.Int (i mod 2);
              Value.Float (float_of_int (Prng.int prng ~bound:side [ i; 1 ]));
              Value.Float (float_of_int (Prng.int prng ~bound:side [ i; 2 ]));
              Value.Float 0.;
            ])
    in
    let evaluator =
      match kind with
      | `Naive -> Eval.naive ~schema ~aggregates:prog.Core_ir.aggregates
      | `Indexed -> Eval.indexed ~schema ~aggregates:prog.Core_ir.aggregates ()
    in
    let groups = [ { Exec.script = "healer"; members = Array.init n (fun i -> i) } ] in
    let (), seconds =
      Timer.timed (fun () ->
          ignore (Exec.run_tick compiled ~evaluator ~units ~groups ~rand_for:(fun ~key:_ _ -> 0)))
    in
    seconds
  in
  pr "%8s %16s %14s %10s@." "units" "indexed (s)" "pairwise (s)" "speedup";
  List.iter
    (fun n ->
      let ti = run `Indexed n and tn = run `Naive n in
      pr "%8d %16.4f %14.4f %9.1fx@." n ti tn (tn /. ti))
    [ 1000; 2000; 4000; 8000 ]

(* A4: where does the indexed tick go? (Section 6's phase split) *)
let phases () =
  header "Ablation A4 - indexed tick phase split (battle, 2000 units, 10 ticks)";
  let _, r = battle_seconds ~evaluator:Simulation.Indexed ~n:2000 ~density:0.01 ~ticks:10 in
  let total = r.Simulation.total_s in
  let pct x = 100. *. x /. total in
  pr "decision (probe)   : %7.3fs  (%4.1f%%)@."
    (r.Simulation.decision_s -. r.Simulation.build_s)
    (pct (r.Simulation.decision_s -. r.Simulation.build_s));
  pr "index building     : %7.3fs  (%4.1f%%)  [%d structures built]@." r.Simulation.build_s
    (pct r.Simulation.build_s) r.Simulation.index_builds;
  pr "post-processing    : %7.3fs  (%4.1f%%)@." r.Simulation.post_s (pct r.Simulation.post_s);
  pr "movement           : %7.3fs  (%4.1f%%)@." r.Simulation.movement_s
    (pct r.Simulation.movement_s);
  pr "death/resurrection : %7.3fs  (%4.1f%%)@." r.Simulation.death_s (pct r.Simulation.death_s);
  pr "index probes       : %d@." r.Simulation.index_probes;
  pr "@.(the paper: \"the overhead of index construction is quite low\" - with@.";
  pr " access-path sharing enabled, probes dominate and full per-tick rebuilds@.";
  pr " keep the whole tick at n log n)@."

(* A6: sharing one tree across divisible queries (Section 6's engine
   design) vs a private tree per aggregate instance. *)
let ablate_share () =
  header "Ablation A6 - shared index groups vs per-instance trees (battle sim)";
  pr "(Section 6: \"all divisible queries share the same range tree\")@.@.";
  let run ~share n =
    let scenario =
      Battle.Scenario.setup ~density:0.01 ~per_side:(Battle.Scenario.standard_mix (n / 2)) ()
    in
    let prog = Battle.Scripts.compile () in
    let schema = prog.Core_ir.schema in
    let evaluator = Eval.indexed ~share ~schema ~aggregates:prog.Core_ir.aggregates () in
    let compiled = Exec.compile prog in
    let units = scenario.Battle.Scenario.units in
    let kind_ix = Schema.find schema "kind" in
    let groups =
      let buckets = Hashtbl.create 4 in
      Array.iteri
        (fun i u ->
          let name =
            Battle.Scripts.script_for
              (Battle.D20.class_of_id (Value.to_int (Tuple.get u kind_ix)))
          in
          Hashtbl.replace buckets name (i :: (try Hashtbl.find buckets name with Not_found -> [])))
        units;
      Hashtbl.fold
        (fun script members acc ->
          { Exec.script; members = Array.of_list (List.rev members) } :: acc)
        buckets []
    in
    let ticks = 5 in
    let (), seconds =
      Timer.timed (fun () ->
          for tick = 0 to ticks - 1 do
            ignore
              (Exec.run_tick compiled ~evaluator ~units ~groups
                 ~rand_for:(fun ~key i -> (key * 31) + i + tick))
          done)
    in
    (seconds /. float_of_int ticks, evaluator.Eval.stats)
  in
  pr "%8s %14s %12s %14s %12s@." "units" "shared (s/t)" "builds" "private (s/t)" "builds";
  List.iter
    (fun n ->
      let ts, ss = run ~share:true n in
      let tp, sp = run ~share:false n in
      pr "%8d %14.4f %12d %14.4f %12d@." n ts ss.Eval.index_builds tp sp.Eval.index_builds)
    [ 1000; 2000; 4000 ]

(* ------------------------------------------------------------------ *)
(* Parallel decision phase: sequential indexed vs domain-pool fan-out *)

(* Decision-phase seconds per tick, measured from the engine's own phase
   timer so movement/post noise stays out of the scaling curve. *)
let decision_per_tick ~(evaluator : Simulation.evaluator_kind) ~(n : int) ~(ticks : int) : float =
  let scenario =
    Battle.Scenario.setup ~density:0.01 ~per_side:(Battle.Scenario.standard_mix (n / 2)) ()
  in
  let sim = Battle.Scenario.simulation ~evaluator scenario in
  (* warm one tick outside the measurement: compilation, pool spin-up *)
  Simulation.step sim;
  let before = (Simulation.report sim).Simulation.decision_s in
  Simulation.run sim ~ticks;
  let after = (Simulation.report sim).Simulation.decision_s in
  (after -. before) /. float_of_int ticks

let parallel_scaling ~full () =
  header "Parallel decision phase - domain-pool fan-out vs sequential indexed";
  pr "(decision-phase wall time per tick; results are bit-identical across@.";
  pr " domain counts by construction - the differential suite pins that)@.@.";
  let sizes = if full then [ 2_000; 10_000; 20_000 ] else [ 1_000; 4_000; 10_000 ] in
  let domain_counts = [ 1; 2; 4; 8 ] in
  pr "%8s %14s" "units" "seq (s/t)";
  List.iter (fun d -> pr " %13s" (Printf.sprintf "%dd (s/t)" d)) domain_counts;
  pr " %10s@." "4d speedup";
  List.iter
    (fun n ->
      let ticks = ticks_for ~evaluator:Simulation.Indexed ~n in
      let seq = decision_per_tick ~evaluator:Simulation.Indexed ~n ~ticks in
      let par =
        List.map
          (fun domains ->
            (domains, decision_per_tick ~evaluator:(Simulation.Parallel { domains }) ~n ~ticks))
          domain_counts
      in
      pr "%8d %14.4f" n seq;
      List.iter (fun (_, t) -> pr " %13.4f" t) par;
      let four = List.assoc 4 par in
      pr " %9.2fx@." (seq /. four))
    sizes;
  pr "@.(on a single-core host the fan-out can only add overhead; the curve@.";
  pr " is still useful as a regression bound on that overhead)@."

(* ------------------------------------------------------------------ *)
(* Fault tolerance: guard overhead and degradation recovery latency *)

let faults_bench () =
  header "Fault tolerance - guard overhead and recovery latency (battle sim)";
  pr "(per-tick time under each fault policy with no faults firing: the@.";
  pr " quarantine guards add a per-group accumulator merge, degrade adds a@.";
  pr " snapshot of three references - both should sit within run noise)@.@.";
  let n = 2_000 and ticks = 10 in
  let per_tick ?fault_policy () =
    let scenario =
      Battle.Scenario.setup ~density:0.01 ~per_side:(Battle.Scenario.standard_mix (n / 2)) ()
    in
    let sim =
      Battle.Scenario.simulation ?fault_policy ~evaluator:Simulation.Indexed scenario
    in
    Simulation.step sim;
    let (), seconds = Timer.timed (fun () -> Simulation.run sim ~ticks) in
    seconds /. float_of_int ticks
  in
  let base = per_tick () in
  pr "%-28s %12s %10s@." "policy (no faults)" "s/tick" "vs fail";
  List.iter
    (fun (name, policy) ->
      let t = per_tick ~fault_policy:policy () in
      pr "%-28s %12.4f %9.2fx@." name t (t /. base))
    [
      ("fail (baseline)", Simulation.Fail);
      ("quarantine", Simulation.Quarantine_script);
      ("degrade", Simulation.Degrade);
    ];
  (* Recovery latency: arm an injection that fires mid-run and measure the
     tick that absorbs the rollback + demotion + retry. *)
  pr "@.recovery latency (degrade, %d units, fault on tick 6 of %d):@." n ticks;
  List.iter
    (fun (label, evaluator, point) ->
      Fun.protect ~finally:Fault_inject.reset (fun () ->
          Fault_inject.reset ();
          let scenario =
            Battle.Scenario.setup ~density:0.01
              ~per_side:(Battle.Scenario.standard_mix (n / 2))
              ()
          in
          let sim =
            Battle.Scenario.simulation ~fault_policy:Simulation.Degrade ~evaluator scenario
          in
          Simulation.step sim;
          let healthy = ref 0. and faulty = ref 0. and after = ref 0. in
          for t = 2 to ticks + 1 do
            Fault_inject.reset ();
            if t = 6 then Fault_inject.arm ~point Fault_inject.Always;
            let (), seconds = Timer.timed (fun () -> Simulation.step sim) in
            if t < 6 then healthy := !healthy +. seconds
            else if t = 6 then faulty := seconds
            else after := !after +. seconds
          done;
          pr "  %-26s healthy %.4fs/t, faulty tick %.4fs, after %.4fs/t (%d retries)@."
            (label ^ " @ " ^ point)
            (!healthy /. 4.) !faulty
            (!after /. float_of_int (ticks - 5))
            (Simulation.retries sim)))
    [
      ("indexed->naive", Simulation.Indexed, "eval.member");
      ("parallel->indexed", Simulation.Parallel { domains = 2 }, "pool.lane");
    ];
  pr "@.(the faulty tick pays the failed partial tick plus a full retry on the@.";
  pr " weaker evaluator; every later tick runs at the weaker evaluator's pace)@."

(* ------------------------------------------------------------------ *)
(* Incremental index maintenance: the cross-tick structure cache *)

(* A low-churn sentry scenario, built to separate the cache's two rebuild
   regimes.  A handful of scouts (player 0) probe a box-count aggregate
   partitioned by player; a churn-sized band of wanderers (player 1)
   marches one cell per tick; the bulk of the army (player 2) never moves
   and never acts.  Warm ticks rebuild only the wanderers' partition —
   the statics' structures revalidate through the delta summary — while
   cold ticks rebuild everything.  Every unit owns its own grid row, so
   movement never collides and ticks stay non-structural.  The scouts'
   guard is [c > 0]: the interval prover decides [c >= 0] (a count is
   never negative) and would compile the aggregate away. *)
let incremental_schema () =
  Schema.create
    [
      Schema.attr "key" Value.TInt;
      Schema.attr "player" Value.TInt;
      Schema.attr "posx" Value.TFloat;
      Schema.attr "posy" Value.TFloat;
      Schema.attr ~tag:Schema.Sum "movevect_x" Value.TFloat;
      Schema.attr ~tag:Schema.Sum "movevect_y" Value.TFloat;
      Schema.attr ~tag:Schema.Sum "seen" Value.TFloat;
    ]

let incremental_source =
  {|
aggregate NearOthers(u) {
  count(*)
  where e.player <> u.player
    and e.posx >= u.posx - 40.0 and e.posx <= u.posx + 40.0
    and e.posy >= u.posy - 40.0 and e.posy <= u.posy + 40.0
}

action Mark(u) { on self { seen <- 1; } }
action Drift(u) { on self { movevect_x <- 1; } }

script scout(u) {
  let c = NearOthers(u);
  if c > 0 then { perform Mark(u); }
}
script wanderer(u) { perform Drift(u); }
|}

let incremental_scouts = 32
let incremental_width = 4096

let incremental_units schema ~(n : int) ~(churn : float) : Sgl.Tuple.t array =
  let wanderers = int_of_float (churn *. float_of_int (n - incremental_scouts)) in
  Array.init n (fun i ->
      let player, x =
        if i < incremental_scouts then (0, 2000)
        else if i < incremental_scouts + wanderers then (1, 100 + (i mod 50))
        else (2, 400 + (i * 7 mod 3200))
      in
      Tuple.of_list schema
        [
          Value.Int i;
          Value.Int player;
          Value.Float (float_of_int x);
          Value.Float (float_of_int i);
          Value.Float 0.;
          Value.Float 0.;
          Value.Float 0.;
        ])

let incremental_sim ~(index_cache : bool) ~(evaluator : Simulation.evaluator_kind) ~(n : int)
    ~(churn : float) : Simulation.t =
  let schema = incremental_schema () in
  let prog = compile ~schema incremental_source in
  let player_ix = Schema.find schema "player" in
  let config =
    {
      Simulation.prog;
      script_of =
        (fun u ->
          match Value.to_int (Tuple.get u player_ix) with
          | 0 -> Some "scout"
          | 1 -> Some "wanderer"
          | _ -> None);
      postprocess =
        Postprocess.make ~schema ~updates:[] ~remove_when:(Expr.Const (Value.Bool false));
      movement =
        Some
          {
            Movement.posx = Schema.find schema "posx";
            posy = Schema.find schema "posy";
            mvx = Schema.find schema "movevect_x";
            mvy = Schema.find schema "movevect_y";
            speed = 1.5;
            speed_attr = None;
            width = incremental_width;
            height = n;
          };
      death = Simulation.Remove;
      seed = 7;
      optimize = true;
    }
  in
  Simulation.create ~index_cache config ~evaluator ~units:(incremental_units schema ~n ~churn)

(* Ticks per second plus the final report; one warm-up tick outside the
   clock (compilation, pool spin-up, the unavoidable first cold build). *)
let incremental_rate ~index_cache ~evaluator ~n ~churn ~ticks : float * Simulation.report =
  let sim = incremental_sim ~index_cache ~evaluator ~n ~churn in
  Simulation.step sim;
  let (), seconds = Timer.timed (fun () -> Simulation.run sim ~ticks) in
  (float_of_int ticks /. seconds, Simulation.report sim)

let incremental ~full () =
  header "Incremental maintenance - warm cross-tick structure cache vs cold rebuild";
  pr "(sentry scenario: %d scouts probe box counts over a mostly static army;@."
    incremental_scouts;
  pr " churn = fraction of units moving per tick.  Warm revalidates cached@.";
  pr " structures against the tick's delta summary, cold rebuilds per tick.@.";
  pr " Unit states are bit-identical either way - the differential suite pins it.)@.@.";
  let sizes = if full then [ 2_000; 8_000; 20_000 ] else [ 2_000; 8_000 ] in
  let churns = [ 0.01; 0.10; 0.50 ] in
  let evaluators =
    [ ("indexed", Simulation.Indexed); ("parallel:2", Simulation.Parallel { domains = 2 }) ]
  in
  pr "%-11s %8s %7s %14s %14s %8s %10s@." "evaluator" "units" "churn" "warm (t/s)"
    "cold (t/s)" "speedup" "reuses";
  List.iter
    (fun (ev_name, evaluator) ->
      List.iter
        (fun n ->
          List.iter
            (fun churn ->
              let ticks = if n >= 20_000 then 5 else 10 in
              let warm, wr = incremental_rate ~index_cache:true ~evaluator ~n ~churn ~ticks in
              let cold, _ = incremental_rate ~index_cache:false ~evaluator ~n ~churn ~ticks in
              pr "%-11s %8d %6.0f%% %14.1f %14.1f %7.2fx %10d@." ev_name n (churn *. 100.)
                warm cold (warm /. cold) wr.Simulation.index_reuses)
            churns)
        sizes)
    evaluators;
  pr "@.(warm wins grow with army size and shrink with churn: the statics'@.";
  pr " range trees are the O(n log n) build cost the delta summary avoids)@."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the index kernels *)

let micro () =
  header "Micro-benchmarks (Bechamel, monotonic clock; ns per run)";
  let open Bechamel in
  let open Toolkit in
  let prng = Prng.create 31 in
  let n = 4096 in
  let xs = Array.init n (fun i -> float_of_int (Prng.int prng ~bound:1000 [ i; 1 ])) in
  let ys = Array.init n (fun i -> float_of_int (Prng.int prng ~bound:1000 [ i; 2 ])) in
  let vals = Array.init n (fun i -> float_of_int (Prng.int prng ~bound:100 [ i; 3 ])) in
  let ids = Array.init n (fun i -> i) in
  let stats id = [| 1.; vals.(id) |] in
  let cascade = Cascade_tree.build ~x:(Array.get xs) ~y:(Array.get ys) ~stats ~m:2 ids in
  let layered =
    Range_tree.build ~dims:[ Array.get xs; Array.get ys ] ~stats:(Some stats) ~m:2 ids
  in
  let kd = Kd_tree.build ~x:(Array.get xs) ~y:(Array.get ys) ids in
  let seg = Segment_tree.build ~neutral:0. ~op:( +. ) vals in
  let box q =
    ( Interval.make ~lo:(xs.(q) -. 50.) ~hi:(xs.(q) +. 50.) (),
      Interval.make ~lo:(ys.(q) -. 50.) ~hi:(ys.(q) +. 50.) () )
  in
  let counter = ref 0 in
  let next () =
    counter := (!counter + 1) land (n - 1);
    !counter
  in
  let tests =
    [
      Test.make ~name:"cascade_build_4096"
        (Staged.stage (fun () ->
             ignore (Cascade_tree.build ~x:(Array.get xs) ~y:(Array.get ys) ~stats ~m:2 ids)));
      Test.make ~name:"cascade_probe"
        (Staged.stage (fun () ->
             let q = next () in
             let ivx, ivy = box q in
             ignore (Cascade_tree.query cascade ~x:ivx ~y:ivy)));
      Test.make ~name:"layered_probe"
        (Staged.stage (fun () ->
             let q = next () in
             let ivx, ivy = box q in
             ignore (Range_tree.query_stats layered [ ivx; ivy ])));
      Test.make ~name:"kd_build_4096"
        (Staged.stage (fun () -> ignore (Kd_tree.build ~x:(Array.get xs) ~y:(Array.get ys) ids)));
      Test.make ~name:"kd_nearest"
        (Staged.stage (fun () ->
             let q = next () in
             ignore (Kd_tree.nearest kd ~qx:xs.(q) ~qy:ys.(q))));
      Test.make ~name:"segment_tree_query"
        (Staged.stage (fun () ->
             let q = next () in
             ignore (Segment_tree.query seg ~lo:(q / 2) ~hi:n)));
      Test.make ~name:"segment_tree_update"
        (Staged.stage (fun () ->
             let q = next () in
             Segment_tree.set seg q vals.(q)));
      Test.make ~name:"prng_script_random"
        (Staged.stage (fun () -> ignore (Prng.script_random prng ~tick:3 ~key:(next ()) 1)));
      Test.make ~name:"naive_scan_4096"
        (Staged.stage (fun () ->
             let q = next () in
             let acc = ref 0 in
             for i = 0 to n - 1 do
               if Float.abs (xs.(i) -. xs.(q)) <= 50. && Float.abs (ys.(i) -. ys.(q)) <= 50. then
                 incr acc
             done;
             ignore !acc));
    ]
  in
  let grouped = Test.make_grouped ~name:"sgl" tests in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  pr "%-30s %14s@." "kernel" "ns/run";
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some (t :: _) -> pr "%-30s %14.1f@." name t
      | Some [] | None -> pr "%-30s %14s@." name "n/a")
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Fused kernels: compiled decision execution vs interpreted plan walking.

   A decision-heavy scenario: every unit runs a scalar steering script —
   long expression chains over tuning constants, one cheap uniform
   aggregate per batch — so the decision phase is dominated by the
   per-row work the fused backend compiles away (plan walking, context
   allocation, re-evaluating constant subtrees) rather than by index
   probes, which cost the same under every backend. *)

let fused_schema () =
  Schema.create
    [
      Schema.attr "key" Value.TInt;
      Schema.attr "player" Value.TInt;
      Schema.attr "posx" Value.TFloat;
      Schema.attr "posy" Value.TFloat;
      Schema.attr "health" Value.TFloat;
      Schema.attr "morale" Value.TFloat;
      Schema.attr ~tag:Schema.Sum "movevect_x" Value.TFloat;
      Schema.attr ~tag:Schema.Sum "movevect_y" Value.TFloat;
    ]

let fused_source =
  (* The tuning formulas k1..k6 are arithmetic over the script constants
     only, and they are spliced INLINE at every use site (a [let] would
     pin them to a register, and constant folding does not cross register
     binds).  Each occurrence is a pure-constant subtree: the fused
     backend folds it to one literal at specialization time, while the
     interpreter re-walks the whole tree for every row on every tick.
     The later formulas textually contain the earlier ones, so the trees
     compound - exactly the "tuning arithmetic around the data" shape
     hand-written steering scripts exhibit. *)
  let k1 = "((WX + WY) * (1.0 - DRIFT) + (WX * 8.0 - WY * (DRIFT + 0.5)) * (WX + DRIFT * WY))" in
  let k2 =
    "((DRIFT * DRIFT - WX * WY) * (1.0 + WX + WY) + max(WX, WY) * abs(DRIFT - WX * 2.0))"
  in
  let k3 =
    Printf.sprintf
      "(max(%s, %s) * (1.0 - WX * DRIFT) + min(%s, %s) * (WY + DRIFT * DRIFT * WX))" k1 k2 k1 k2
  in
  let k4 =
    Printf.sprintf
      "(abs(%s - %s * DRIFT) * (WX * (1.0 + DRIFT) - WY * (1.0 - DRIFT)) + max(%s * WX, %s * WY) \
       * (DRIFT + WX * (1.0 - WY * 2.0)))"
      k1 k2 k3 k1
  in
  let k5 =
    Printf.sprintf
      "((%s + %s * (WX - WY * DRIFT)) * (1.0 + DRIFT * DRIFT) - min(%s * WX, %s * (DRIFT + WY)) \
       * abs(1.0 - %s * DRIFT))"
      k4 k3 k4 k2 k1
  in
  let k6 =
    Printf.sprintf
      "(max(%s, %s * (1.0 - DRIFT)) * (WY + WX * DRIFT * DRIFT) + abs(%s - %s + %s * WX) * \
       (DRIFT * (1.0 - WX) * (1.0 - WY)))"
      k5 k4 k5 k4 k3
  in
  Printf.sprintf
    {|
const WX = 0.046875;
const WY = 0.03125;
const DRIFT = 0.25;

aggregate SpreadX(u) { stddev(e.posx) where e.player = 0 default 0.0 }

action Advance(u, vx, vy) {
  on self { movevect_x <- vx; movevect_y <- vy; }
}
action Hold(u, p) {
  on self { movevect_x <- 0.0 - p; }
}

script main(u) {
  let s = SpreadX(u);
  let px = u.posx * %s - u.posy * %s + (u.posx - u.posy) * (WX * (1.0 - DRIFT) + WY * DRIFT);
  let py = u.posy * %s + u.posx * %s - (u.posy - u.posx) * (WY * (1.0 - DRIFT) + WX * DRIFT);
  let wob = abs(px - py) + max(px, py) * (1.0 - WX * DRIFT) + u.morale * %s;
  let bias = min(px * %s - py * %s, py * %s - px * %s) + abs(wob - %s) * (DRIFT * (1.0 - WY));
  let gain = max(0.0 - wob, wob * (1.0 - WX)) + s * WY + abs(u.health * %s - bias * %s);
  if gain > u.health * %s then {
    if wob > gain * %s then { perform Advance(u, px * DRIFT + bias * %s, py * DRIFT + %s); }
    else { perform Advance(u, py * DRIFT - %s, px * DRIFT - bias * %s); }
  } else {
    perform Hold(u, gain * DRIFT + wob * %s + bias * %s);
  }
}
|}
    k1 k2 k1 k2 k3 k3 k2 k4 k1 k6 k1 k4 k5 k3 k2 k6 k4 k1 k2 k3

let fused_units schema ~n =
  let prng = Prng.create 17 in
  let side = int_of_float (sqrt (float_of_int n /. 0.01)) in
  Array.init n (fun i ->
      Tuple.of_list schema
        [
          Value.Int i;
          Value.Int (i mod 2);
          Value.Float (float_of_int (Prng.int prng ~bound:side [ i; 1 ]));
          Value.Float (float_of_int (Prng.int prng ~bound:side [ i; 2 ]));
          Value.Float (float_of_int (10 + Prng.int prng ~bound:90 [ i; 3 ]));
          Value.Float (float_of_int (Prng.int prng ~bound:4 [ i; 4 ]));
          Value.Float 0.;
          Value.Float 0.;
        ])

let fused_sim ~(index_cache : bool) ~(evaluator : Simulation.evaluator_kind) ~(n : int) () :
    Simulation.t =
  let schema = fused_schema () in
  let prog = compile ~schema fused_source in
  let config =
    {
      Simulation.prog;
      script_of = (fun _ -> Some "main");
      postprocess =
        Postprocess.make ~schema ~updates:[] ~remove_when:(Expr.Const (Value.Bool false));
      movement =
        Some
          {
            Movement.posx = Schema.find schema "posx";
            posy = Schema.find schema "posy";
            mvx = Schema.find schema "movevect_x";
            mvy = Schema.find schema "movevect_y";
            speed = 2.;
            speed_attr = None;
            width = 2048;
            height = 2048;
          };
      death = Simulation.Remove;
      seed = 13;
      optimize = true;
    }
  in
  Simulation.create ~index_cache config ~evaluator ~units:(fused_units schema ~n)

(* Decision-phase seconds per tick from the engine's phase timer, one
   warm-up tick outside the clock (compilation, kernel specialization). *)
let fused_decision ~index_cache ~evaluator ~n ~ticks : float =
  let sim = fused_sim ~index_cache ~evaluator ~n () in
  Simulation.step sim;
  let before = (Simulation.report sim).Simulation.decision_s in
  Simulation.run sim ~ticks;
  ((Simulation.report sim).Simulation.decision_s -. before) /. float_of_int ticks

let fused_bench ~full () =
  header "Fused kernels - compiled decision execution vs interpreted plan walking";
  pr "(scalar steering scenario: the decision phase is per-row expression@.";
  pr " work plus one uniform aggregate per batch.  The kernels are pinned@.";
  pr " bit-identical to every other evaluator by the conformance suite;@.";
  pr " only the time changes.)@.@.";
  let sizes = if full then [ 2_000; 8_000; 12_000; 20_000 ] else [ 2_000; 8_000; 12_000 ] in
  let evaluators =
    [
      ("indexed", Simulation.Indexed);
      ("parallel:2", Simulation.Parallel { domains = 2 });
      ("fused", Simulation.Fused);
    ]
  in
  pr "%8s %6s" "units" "cache";
  List.iter (fun (name, _) -> pr " %13s" (name ^ " (s/t)")) evaluators;
  pr " %12s@." "fused gain";
  List.iter
    (fun n ->
      let ticks = if n >= 8_000 then 5 else 10 in
      List.iter
        (fun index_cache ->
          let results =
            List.map
              (fun (name, evaluator) ->
                (name, fused_decision ~index_cache ~evaluator ~n ~ticks))
              evaluators
          in
          pr "%8d %6s" n (if index_cache then "warm" else "cold");
          List.iter (fun (_, t) -> pr " %13.4f" t) results;
          pr " %11.2fx@." (List.assoc "indexed" results /. List.assoc "fused" results))
        [ true; false ])
    sizes;
  pr "@.(the gain is the interpreter constant factor the kernels remove:@.";
  pr " no plan walk, no per-evaluation context, constant subtrees folded@.";
  pr " at specialization time.  Index-probe-bound workloads gain less -@.";
  pr " probes cost the same under every backend.)@."

(* ------------------------------------------------------------------ *)
(* Counts: the deterministic regression gate.

   Fixed-seed, fixed-tick twins of perfbench's three workloads (the paper
   battle, the low-churn sentry, the expression-bound steering scenario),
   run under every evaluator.  Each line carries only what is a pure
   function of seed and tick count: the report's work counters, four
   ambient-registry counters and the final state digest - no wall-clock
   value - so the output is byte-identical on any machine.  bench/dune
   diffs it against bench/counts.expected on every [dune runtest]: an
   index rebuilt per probe, a cache forced cold or a kernel bypassed
   shows up as a changed count.  The naive rows put the oracle's digest next to the others'; the
   battle has none, as a naive 2000-unit battle costs seconds. *)

let counts () =
  let ticks = 20 in
  let battle evaluator =
    let scenario =
      Battle.Scenario.setup ~density:0.01 ~per_side:(Battle.Scenario.standard_mix 1000) ()
    in
    Battle.Scenario.simulation ~seed:1 ~evaluator scenario
  in
  let sentry evaluator = incremental_sim ~index_cache:true ~evaluator ~n:2000 ~churn:0.01 in
  let steer evaluator = fused_sim ~index_cache:true ~evaluator ~n:500 () in
  let fast = [ Simulation.Indexed; Simulation.Fused; Simulation.Parallel { domains = 2 } ] in
  let workloads =
    [
      ("battle-2000", battle, fast);
      ("sentry-2000", sentry, fast @ [ Simulation.Naive ]);
      ("steer-500", steer, fast @ [ Simulation.Naive ]);
    ]
  in
  let registry =
    [ "relalg.column_copies"; "persist.snapshot_cow_hits"; "fused.rows"; "combine.merge_ops" ]
  in
  header (Printf.sprintf "Counts - deterministic work per workload and evaluator (%d ticks)" ticks);
  List.iter
    (fun (workload, make, evaluators) ->
      List.iter
        (fun evaluator ->
          Telemetry.reset ();
          Telemetry.set_enabled true;
          let sim = make evaluator in
          Fun.protect
            ~finally:(fun () -> Telemetry.set_enabled false)
            (fun () -> Simulation.run sim ~ticks);
          let r = Simulation.report sim in
          let metrics = Telemetry.counters () in
          pr "%s %s index_builds=%d index_reuses=%d index_probes=%d naive_scans=%d uniform_hits=%d \
              deaths=%d resurrections=%d"
            workload (Simulation.evaluator_name evaluator) r.Simulation.index_builds
            r.Simulation.index_reuses r.Simulation.index_probes r.Simulation.naive_scans
            r.Simulation.uniform_hits r.Simulation.deaths r.Simulation.resurrections;
          List.iter
            (fun name ->
              pr " %s=%d" name (Option.value ~default:0 (List.assoc_opt name metrics)))
            registry;
          pr " digest=%08x@." (Simulation.state_digest sim))
        evaluators)
    workloads

(* ------------------------------------------------------------------ *)
(* Driver *)

let everything ~full () =
  fig10 ~full ();
  capacity ~full ();
  density_sweep ();
  ablate_divisible ();
  ablate_sweep ();
  ablate_nn ();
  ablate_combine ();
  ablate_share ();
  phases ();
  parallel_scaling ~full ();
  incremental ~full ();
  fused_bench ~full ();
  faults_bench ();
  micro ()

let () =
  pr "SGL benchmark harness - reproduction of White et al., SIGMOD 2007@.";
  match List.tl (Array.to_list Sys.argv) with
  | [] | [ "quick" ] -> everything ~full:false ()
  | [ "full" ] -> everything ~full:true ()
  | names ->
    List.iter
      (function
        | "fig10" -> fig10 ~full:false ()
        | "fig10-full" -> fig10 ~full:true ()
        | "capacity" -> capacity ~full:false ()
        | "density" -> density_sweep ()
        | "ablate-divisible" -> ablate_divisible ()
        | "ablate-sweep" -> ablate_sweep ()
        | "ablate-nn" -> ablate_nn ()
        | "ablate-combine" -> ablate_combine ()
        | "ablate-share" -> ablate_share ()
        | "phases" -> phases ()
        | "parallel" -> parallel_scaling ~full:false ()
        | "parallel-full" -> parallel_scaling ~full:true ()
        | "incremental" -> incremental ~full:false ()
        | "incremental-full" -> incremental ~full:true ()
        | "fused" -> fused_bench ~full:false ()
        | "fused-full" -> fused_bench ~full:true ()
        | "faults" -> faults_bench ()
        | "micro" -> micro ()
        | "counts" -> counts ()
        | other ->
          Fmt.epr "unknown benchmark %S@." other;
          exit 1)
      names
