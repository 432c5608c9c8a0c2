(* The three workloads of the tick benchmark.

   A workload is only its inputs: the unit array, the SGL program and the
   simulation config, all generated from the benchmark seed.  The engine
   configuration around them (evaluator, optimizer, caches, persistence,
   observer) is the same for every workload and lives in [Tickbench].

   Why these three: each stresses a different layer of the tick, so an
   optimization of one layer has a workload that exercises it and one that
   bypasses it (where the prediction is "no change").

   - battle-12k: the paper's Section 6 battle at its headline scale.
     Probe-bound: about ten aggregates per unit over range, cascade,
     segment, kD and categorical indexes, plus healer auras through the
     area-of-effect index.  Tens of deaths per tick make every tick
     structural, so the cross-tick index cache stays cold and the state
     digest is a full pass.
   - steer-4k: expression-bound.  One uniform aggregate and no index
     builds; nearly the whole tick is plan walking and expression
     evaluation.  Shows any executor or kernel change and bypasses index
     work.  The working set fits in cache.
   - sentry-100k: reuse-heavy, bound by post-processing, movement and
     commit.  32 scouts probe a mostly static army of 100k units; ticks are
     non-structural, so index structures revalidate through the delta
     summary instead of rebuilding and the digest is incremental.  The
     heap is far beyond the last-level cache. *)

open Sgl

type instance = {
  config : Simulation.config;
  units : Tuple.t array;
}

(* Work the workload exists to exercise, summed over the measured ticks.
   Per-tick lists are in tick order. *)
type work = {
  w_probes : int;
  w_uniform_hits : int;
  w_aoe_calls : int;
  w_builds_per_tick : int list;
  w_deaths_per_tick : int list;
  w_reuses_per_tick : int list;
}

type t = {
  name : string;
  why : string;
  compile : unit -> Core_ir.program; (* the SGL layer alone *)
  make : seed:int -> prog:Core_ir.program -> instance; (* inputs from the seed *)
  naive_replay : bool; (* the naive backend is affordable on this workload *)
  guard : work -> string list; (* why the run did not do its work; [] when it did *)
}

(* Seeds: the benchmark seed roots one PRNG; the simulation's own seed and
   every generated attribute are draws from it, so the program only ever
   sees the generated inputs. *)
let sim_seed prng = Prng.int prng ~bound:(1 lsl 30) [ 0x5eed ]

let require cond msg = if cond then [] else [ msg ]

let every_tick p l = l <> [] && List.for_all p l

(* ------------------------------------------------------------------ *)
(* battle-12k *)

(* The simulation config of [Battle.Scenario.sim_config ~resurrect:true],
   built over an already compiled program so set-up compiles the scripts
   once, as battle_sim does. *)
let battle_config ~seed ~prog (sc : Battle.Scenario.t) : Simulation.config =
  let s = sc.Battle.Scenario.schema in
  let find = Schema.find s in
  let kind_ix = find "kind" in
  {
    Simulation.prog;
    script_of =
      (fun u ->
        Some
          (Battle.Scripts.script_for
             (Battle.D20.class_of_id (Value.to_int (Tuple.get u kind_ix)))));
    postprocess = Postprocess.battle_spec ~schema:s;
    movement =
      Some
        {
          Movement.posx = find "posx";
          posy = find "posy";
          mvx = find "movevect_x";
          mvy = find "movevect_y";
          speed = Battle.D20.walk_dist_per_tick;
          speed_attr = None;
          width = sc.Battle.Scenario.width;
          height = sc.Battle.Scenario.height;
        };
    death = Simulation.Resurrect { health = find "health"; max_health = find "max_health" };
    seed;
    optimize = true;
  }

(* The deployment is the paper's fixed front-line formation; the seed
   drives every Random() draw, the movement order and resurrection
   positions through the simulation seed. *)
let battle =
  {
    name = "battle-12k";
    why =
      "the paper's headline scale: probe-bound over every index kind plus healer auras; deaths \
       make every tick structural, so the index cache stays cold";
    compile = Battle.Scripts.compile;
    make =
      (fun ~seed ~prog ->
        let sc =
          Battle.Scenario.setup ~density:0.01 ~per_side:(Battle.Scenario.standard_mix 6000) ()
        in
        let seed = sim_seed (Prng.create seed) in
        { config = battle_config ~seed ~prog sc; units = sc.Battle.Scenario.units });
    naive_replay = false;
    guard =
      (fun w ->
        require (w.w_probes > 0) "no index probes"
        @ require (w.w_aoe_calls > 0) "no area-of-effect applications"
        @ require (every_tick (fun b -> b > 0) w.w_builds_per_tick) "a tick built no index"
        @ require (every_tick (fun d -> d > 0) w.w_deaths_per_tick) "a tick had no deaths");
  }

(* ------------------------------------------------------------------ *)
(* steer-4k: the scalar steering scenario of the bench's [fused] section *)

let steer_schema =
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

(* Tuning formulas over script constants only, spliced inline at every use
   so each occurrence is a constant subtree: the fused backend folds it,
   the plan walker re-evaluates it per row per tick. *)
let steer_source =
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

let steer_units = 4_000

let steer =
  {
    name = "steer-4k";
    why =
      "expression-bound: one uniform aggregate and no index builds, so executor and kernel \
       changes show and index work is bypassed; fits in cache";
    compile = (fun () -> compile ~schema:steer_schema steer_source);
    make =
      (fun ~seed ~prog ->
        let prng = Prng.create seed in
        let n = steer_units in
        let side = int_of_float (sqrt (float_of_int n /. 0.01)) in
        let units =
          Array.init n (fun i ->
              Tuple.of_list steer_schema
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
        in
        let find = Schema.find steer_schema in
        let config =
          {
            Simulation.prog;
            script_of = (fun _ -> Some "main");
            postprocess =
              Postprocess.make ~schema:steer_schema ~updates:[]
                ~remove_when:(Expr.Const (Value.Bool false));
            movement =
              Some
                {
                  Movement.posx = find "posx";
                  posy = find "posy";
                  mvx = find "movevect_x";
                  mvy = find "movevect_y";
                  speed = 2.;
                  speed_attr = None;
                  width = 2048;
                  height = 2048;
                };
            death = Simulation.Remove;
            seed = sim_seed prng;
            optimize = true;
          }
        in
        { config; units });
    naive_replay = true;
    guard = (fun w -> require (w.w_uniform_hits > 0) "no uniform aggregate hits");
  }

(* ------------------------------------------------------------------ *)
(* sentry-100k: the low-churn sentry scenario of the bench's [incremental]
   section.  Scouts (player 0) probe a box count over the other players; a
   1% band of wanderers (player 1) marches one cell per tick; the rest
   (player 2) never moves or acts.  Every unit owns its grid row, so moves
   never collide and no tick is structural.  The scouts' guard is [c > 0]:
   the interval prover can decide [c >= 0] (a count is never negative) and
   would compile the aggregate away, leaving no aggregate work to measure. *)

let sentry_schema =
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

let sentry_source =
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

let sentry_units = 100_000
let sentry_scouts = 32
let sentry_churn = 0.01
let sentry_width = 4096

let sentry =
  {
    name = "sentry-100k";
    why =
      "reuse-heavy, bound by post, movement and commit: non-structural ticks revalidate cached \
       indexes and digest incrementally; heap far beyond the LLC";
    compile = (fun () -> compile ~schema:sentry_schema sentry_source);
    make =
      (fun ~seed ~prog ->
        let prng = Prng.create seed in
        let n = sentry_units in
        let wanderers = int_of_float (sentry_churn *. float_of_int (n - sentry_scouts)) in
        let units =
          Array.init n (fun i ->
              let player, x =
                if i < sentry_scouts then (0, 2000)
                else if i < sentry_scouts + wanderers then (1, 100 + Prng.int prng ~bound:50 [ i ])
                else (2, 400 + Prng.int prng ~bound:3200 [ i ])
              in
              Tuple.of_list sentry_schema
                [
                  Value.Int i;
                  Value.Int player;
                  Value.Float (float_of_int x);
                  Value.Float (float_of_int i);
                  Value.Float 0.;
                  Value.Float 0.;
                  Value.Float 0.;
                ])
        in
        let find = Schema.find sentry_schema in
        let player_ix = find "player" in
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
              Postprocess.make ~schema:sentry_schema ~updates:[]
                ~remove_when:(Expr.Const (Value.Bool false));
            movement =
              Some
                {
                  Movement.posx = find "posx";
                  posy = find "posy";
                  mvx = find "movevect_x";
                  mvy = find "movevect_y";
                  speed = 1.5;
                  speed_attr = None;
                  width = sentry_width;
                  height = n;
                };
            death = Simulation.Remove;
            seed = sim_seed prng;
            optimize = true;
          }
        in
        { config; units });
    naive_replay = true;
    guard =
      (fun w ->
        require (w.w_probes > 0) "no index probes"
        @ require (every_tick (fun d -> d = 0) w.w_deaths_per_tick) "a tick was structural"
        @ require (List.exists (fun r -> r > 0) w.w_reuses_per_tick) "no index reuses");
  }

let all = [ battle; steer; sentry ]
let find name = List.find_opt (fun w -> w.name = name) all
