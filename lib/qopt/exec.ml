(* Set-at-a-time execution of optimized plans (Section 5).

   One tick's decision + action work for one script: every unit running the
   script becomes a full-width row (schema attributes plus bind registers),
   the plan partitions and extends the row set, and [Act] leaves emit
   effects into a combination accumulator.  All aggregate evaluation and
   area-effect combination is delegated to the pluggable [Eval.t]. *)

open Sgl_relalg
open Sgl_lang

type compiled = {
  prog : Core_ir.program;
  plans : (string * Plan.t) list; (* per entry script *)
  width : int; (* register count for row allocation *)
  rewrites : Rewrite.rewrite_stats;
}

let compile ?(optimize = true) ?(prove = fun (_ : string) (_ : Expr.t) -> None)
    (prog : Core_ir.program) : compiled =
  let schema = prog.Core_ir.schema in
  let stats = Rewrite.no_stats () in
  let plans =
    List.map
      (fun (s : Core_ir.script) ->
        let plan = Plan.of_core schema s.Core_ir.body in
        let plan =
          if optimize then
            Rewrite.optimize ~stats ~prove:(prove s.Core_ir.name) ~aggs:prog.Core_ir.aggregates
              plan
          else plan
        in
        (s.Core_ir.name, plan))
      prog.Core_ir.scripts
  in
  let width =
    List.fold_left (fun acc (_, p) -> max acc (Plan.width schema p)) (Schema.arity schema) plans
  in
  { prog; plans; width; rewrites = stats }

let find_plan (c : compiled) name = List.assoc_opt name c.plans

exception Exec_error of string

(* Telemetry: rows entering each script group's plan and rows surviving to
   an [Act] leaf — the executor-level selectivity EXPLAIN reports next to
   the per-aggregate counters.  Gated on one atomic load when disabled. *)
let tel_rows_in = Sgl_util.Telemetry.counter "exec.group_rows_in"
let tel_rows_out = Sgl_util.Telemetry.counter "exec.group_rows_out"

(* A full-width working row for a unit: schema values copied, registers
   zeroed. *)
let make_row (width : int) (unit_row : Tuple.t) : Tuple.t =
  let row = Array.make width (Value.Int 0) in
  Array.blit unit_row 0 row 0 (Array.length unit_row);
  row

type group = {
  script : string;
  members : int array; (* indexes into the tick's unit array *)
}

(* Execute one plan over its rows, emitting effects into [acc]. *)
let run_plan ~(schema : Schema.t) ~(evaluator : Eval.t) ~(find_key : int -> Tuple.t option)
    ~(acc : Combine.Acc.t) ~(plan : Plan.t) ~(rows : Tuple.t array)
    ~(rands : (int -> int) array) : unit =
  let apply_direct (row : Tuple.t) (rand : int -> int) (c : Core_ir.effect_clause) =
    let emit target =
      let key = Tuple.key schema target in
      let ctx = { Expr.u = row; e = Some target; rand } in
      List.iter
        (fun (attr, expr) -> Combine.Acc.add_attr acc ~base:target ~key attr (Expr.eval ctx expr))
        c.Core_ir.updates
    in
    match c.Core_ir.target with
    | Core_ir.Self -> emit row
    | Core_ir.Key key_expr -> begin
      let key = Expr.eval_int { Expr.u = row; e = None; rand } key_expr in
      match find_key key with
      | None -> ()
      | Some target -> emit target
    end
    | Core_ir.All _ -> assert false
  in
  let rec go (plan : Plan.t) (sel : int array) : unit =
    if Array.length sel > 0 then begin
      match plan with
      | Plan.Nop -> ()
      | Plan.Bind (slot, Plan.Bind_expr e, k) ->
        Array.iter
          (fun i ->
            let row = rows.(i) in
            row.(slot) <- Expr.eval { Expr.u = row; e = None; rand = rands.(i) } e)
          sel;
        go k sel
      | Plan.Bind (slot, Plan.Bind_agg agg_id, k) ->
        let batch_rows = Array.map (fun i -> rows.(i)) sel in
        let batch_rands = Array.map (fun i -> rands.(i)) sel in
        let eval () = evaluator.Eval.eval_agg ~agg_id ~rows:batch_rows ~rands:batch_rands in
        (* Per-operator span; the name is only built when tracing. *)
        let values =
          if Sgl_util.Telemetry.Span.enabled () then
            Sgl_util.Telemetry.Span.with_ ~cat:"op" (Printf.sprintf "agg:%d" agg_id) eval
          else eval ()
        in
        Array.iteri (fun j i -> rows.(i).(slot) <- values.(j)) sel;
        go k sel
      | Plan.Select (c, a, b) ->
        let yes, no =
          Array.to_list sel
          |> List.partition (fun i ->
                 Expr.eval_bool { Expr.u = rows.(i); e = None; rand = rands.(i) } c)
        in
        go a (Array.of_list yes);
        go b (Array.of_list no)
      | Plan.Both plans -> List.iter (fun p -> go p sel) plans
      | Plan.Act clauses ->
        Sgl_util.Telemetry.Counter.add tel_rows_out (Array.length sel);
        List.iter
          (fun (c : Core_ir.effect_clause) ->
            match c.Core_ir.target with
            | Core_ir.Self | Core_ir.Key _ ->
              Array.iter (fun i -> apply_direct rows.(i) rands.(i) c) sel
            | Core_ir.All pred ->
              let contributors = Array.map (fun i -> rows.(i)) sel in
              let contributor_rands = Array.map (fun i -> rands.(i)) sel in
              evaluator.Eval.apply_aoe ~pred ~updates:c.Core_ir.updates ~contributors
                ~contributor_rands ~acc)
          clauses
    end
  in
  go plan (Array.init (Array.length rows) (fun i -> i))

(* The tick's key table: every unit addressable by key for [Core_ir.Key]
   targets.  Built once per tick; read-only afterwards, so worker domains
   may probe it concurrently. *)
let key_table (schema : Schema.t) (units : Tuple.t array) : int -> Tuple.t option =
  let table = Hashtbl.create (Array.length units * 2) in
  Array.iter (fun row -> Hashtbl.replace table (Tuple.key schema row) row) units;
  fun k -> Hashtbl.find_opt table k

(* ------------------------------------------------------------------ *)
(* Fused execution: the same ticks, driven by specialized kernels.

   [fuse] lowers every plan through [Loop_ir.Lower] and compiles the loop
   programs once; a fused tick then runs each group through its kernel
   instead of walking the plan tree.  The evaluator stays a run-time
   parameter, so fused execution composes with the shared index cache and
   with [Degrade]'s demotion to a weaker evaluator without recompiling. *)

type fused = (string * Loop_ir.Compile.kernel) list

let tel_fused_kernels = Sgl_util.Telemetry.counter "fused.kernels"
let tel_fused_rows = Sgl_util.Telemetry.counter "fused.rows"

let fuse ?(fold = fun (_ : string) (_ : Expr.t) -> None) (c : compiled) : fused =
  let schema = c.prog.Core_ir.schema in
  List.map
    (fun (name, plan) ->
      (name, Loop_ir.Compile.compile ~fold:(fold name) ~schema (Loop_ir.Lower.lower plan)))
    c.plans

(* ------------------------------------------------------------------ *)
(* The executor.  Every tick, whatever the backend or fault policy, runs
   through [execute]: a per-group body (plan walk or fused kernel) driven
   over one or more lanes, optionally with each group isolated. *)

type engine =
  | Seq of Eval.t
  | Par of { pool : Sgl_util.Domain_pool.t; family : Eval.family }
  | Fus of { evaluator : Eval.t; kernels : fused }

type group_fault = {
  gf_script : string;
  gf_exn : exn;
  gf_backtrace : Printexc.raw_backtrace;
  gf_suppressed : int; (* further failures of the same group on other chunks *)
}

(* One group's decision+action work.  The prologue is shared by both
   bodies: the ["exec.group"] injection point fires first and with the
   same call count whichever backend runs the tick (so an [At_count] fault
   quarantines the same script everywhere), then the members' working rows
   and random streams are materialized and the body runs into [acc].
   ["fused.kernel"] fires only on the kernel body. *)
let run_group (c : compiled) ~(kernels : fused option) ~(schema : Schema.t)
    ~(cols : Colstore.t option) ~(evaluator : Eval.t) ~(find_key : int -> Tuple.t option)
    ~(acc : Combine.Acc.t) ~(units : Tuple.t array) ~(rand_for : key:int -> int -> int)
    (g : group) : unit =
  Sgl_util.Fault_inject.hit "exec.group";
  Sgl_util.Telemetry.Counter.add tel_rows_in (Array.length g.members);
  let span, run =
    match kernels with
    | None -> (
      match find_plan c g.script with
      | None -> raise (Exec_error (Fmt.str "no plan for script %S" g.script))
      | Some plan ->
        ( "group:",
          fun ~rows ~rands -> run_plan ~schema ~evaluator ~find_key ~acc ~plan ~rows ~rands ))
    | Some fused -> (
      match List.assoc_opt g.script fused with
      | None -> raise (Exec_error (Fmt.str "no fused kernel for script %S" g.script))
      | Some kernel ->
        ( "kernel:",
          fun ~rows ~rands ->
            Sgl_util.Fault_inject.hit "fused.kernel";
            Sgl_util.Telemetry.Counter.add tel_fused_kernels 1;
            Sgl_util.Telemetry.Counter.add tel_fused_rows (Array.length g.members);
            kernel
              { Loop_ir.Compile.evaluator; find_key; acc; cols; ids = g.members }
              ~rows ~rands ))
  in
  let body () =
    let rows = Array.map (fun i -> make_row c.width units.(i)) g.members in
    let rands = Array.map (fun i -> rand_for ~key:(Tuple.key schema units.(i))) g.members in
    run ~rows ~rands
  in
  if Sgl_util.Telemetry.Span.enabled () then
    Sgl_util.Telemetry.Span.with_ ~cat:"exec" (span ^ g.script) body
  else body ()

(* One group's verdict on one lane under isolation. *)
type outcome =
  | Skipped (* no members of the group on this lane *)
  | Done of Combine.Acc.t
  | Failed of exn * Printexc.raw_backtrace

(* The lanes.  A sequential engine runs one evaluator inline over the
   groups as given.  A parallel engine cuts the unit array into one
   contiguous chunk per family member; lane [k] runs the intersection of
   every group with chunk [k] on the pool, probing the index cache
   [family.prepare] just opened, and the lane bags fold in chunk order
   with the accumulator-level (+), whose associativity and commutativity
   make the result independent of the chunking — so any chunk count,
   including 1, reproduces the sequential tick bit-for-bit on integral
   workloads.

   [isolate] gives each (lane, group) a private effect bag.  A group merges
   only when every lane of it succeeded, so a group that raises anywhere
   contributes nothing at all and is reported as one {!group_fault}, with
   further lane failures counted in [gf_suppressed]: the per-group
   transactional discipline behind quarantine, independent of where chunk
   boundaries fell.  Without it groups write straight into the lane
   accumulator and exceptions propagate untouched. *)
let execute ?delta ?cols (c : compiled) (engine : engine) ~(isolate : bool)
    ~(units : Tuple.t array) ~(groups : group list) ~(rand_for : key:int -> int -> int) :
    Combine.Acc.t * group_fault list =
  let schema = c.prog.Core_ir.schema in
  let lanes, pool, kernels =
    match engine with
    | Seq evaluator ->
      evaluator.Eval.begin_tick ?delta ?cols units;
      ([| evaluator |], None, None)
    | Fus { evaluator; kernels } ->
      evaluator.Eval.begin_tick ?delta ?cols units;
      ([| evaluator |], None, Some kernels)
    | Par { pool; family } ->
      family.Eval.prepare ?delta ?cols units;
      (family.Eval.members, Some pool, None)
  in
  let find_key = key_table schema units in
  let groups = Array.of_list groups in
  (* The groups lane [k] runs; [None] where a group has no member there. *)
  let lane_groups =
    match pool with
    | None -> fun _ -> Array.map Option.some groups
    | Some _ ->
      let ranges =
        Sgl_util.Domain_pool.chunk_ranges ~n:(Array.length units) ~chunks:(Array.length lanes)
      in
      fun k ->
        let lo, hi = ranges.(k) in
        Array.map
          (fun g ->
            (* Group membership need not be sorted: filter, don't slice. *)
            let mine = List.filter (fun i -> lo <= i && i < hi) (Array.to_list g.members) in
            if mine = [] then None else Some { g with members = Array.of_list mine })
          groups
  in
  let map_lanes f =
    match pool with
    | None -> [| f 0 |]
    | Some pool ->
      Sgl_util.Domain_pool.parallel_map pool f (Array.init (Array.length lanes) Fun.id)
  in
  let run k ~acc g =
    run_group c ~kernels ~schema ~cols ~evaluator:lanes.(k) ~find_key ~acc ~units ~rand_for g
  in
  if not isolate then begin
    let accs =
      map_lanes (fun k ->
          let acc = Combine.Acc.create schema in
          Array.iter (Option.iter (run k ~acc)) (lane_groups k);
          acc)
    in
    match pool with
    | None -> (accs.(0), [])
    | Some _ ->
      let out = Combine.Acc.create schema in
      Array.iter (fun acc -> Combine.Acc.merge_into ~dst:out acc) accs;
      (out, [])
  end
  else begin
    let outcomes =
      map_lanes (fun k ->
          Array.map
            (function
              | None -> Skipped
              | Some g -> (
                let gacc = Combine.Acc.create schema in
                match run k ~acc:gacc g with
                | () -> Done gacc
                | exception e -> Failed (e, Printexc.get_raw_backtrace ())))
            (lane_groups k))
    in
    let acc = Combine.Acc.create schema in
    let faults = ref [] in
    Array.iteri
      (fun gi g ->
        let lane_outcomes = Array.map (fun o -> o.(gi)) outcomes in
        let failures =
          List.filter_map
            (function Failed (e, bt) -> Some (e, bt) | Skipped | Done _ -> None)
            (Array.to_list lane_outcomes)
        in
        match failures with
        | [] ->
          Array.iter
            (function Done gacc -> Combine.Acc.merge_into ~dst:acc gacc | Skipped | Failed _ -> ())
            lane_outcomes
        | (e, bt) :: rest ->
          faults :=
            { gf_script = g.script; gf_exn = e; gf_backtrace = bt;
              gf_suppressed = List.length rest }
            :: !faults)
      groups;
    (acc, List.rev !faults)
  end

let run_tick ?delta ?cols c ~evaluator ~units ~groups ~rand_for =
  fst (execute ?delta ?cols c (Seq evaluator) ~isolate:false ~units ~groups ~rand_for)

let run_tick_parallel ?delta ?cols c ~pool ~family ~units ~groups ~rand_for =
  fst (execute ?delta ?cols c (Par { pool; family }) ~isolate:false ~units ~groups ~rand_for)

let run_tick_fused ?delta ?cols c ~fused ~evaluator ~units ~groups ~rand_for =
  fst
    (execute ?delta ?cols c (Fus { evaluator; kernels = fused }) ~isolate:false ~units ~groups
       ~rand_for)
