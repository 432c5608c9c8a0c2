(** Set-at-a-time execution of optimized plans: one tick's decision and
    action phases for the scripted unit groups, with effects combined into
    a {!Sgl_relalg.Combine.Acc}. *)

open Sgl_relalg
open Sgl_lang

type compiled = {
  prog : Core_ir.program;
  plans : (string * Plan.t) list;
  width : int;
  rewrites : Rewrite.rewrite_stats;
}

exception Exec_error of string

(** Translate and (by default) optimize every entry script.  [prove],
    indexed by script name, feeds interval facts into the rewrite's
    condition pruning (see {!Rewrite.simplify}); validation must then run
    with the same prover. *)
val compile :
  ?optimize:bool -> ?prove:(string -> Expr.t -> bool option) -> Core_ir.program -> compiled

val find_plan : compiled -> string -> Plan.t option

(** Full-width working row for a unit. *)
val make_row : int -> Tuple.t -> Tuple.t

type group = {
  script : string;
  members : int array; (* indexes into the tick's unit array *)
}

val run_plan :
  schema:Schema.t ->
  evaluator:Eval.t ->
  find_key:(int -> Tuple.t option) ->
  acc:Combine.Acc.t ->
  plan:Plan.t ->
  rows:Tuple.t array ->
  rands:(int -> int) array ->
  unit

(** Fused execution backend: every script's plan lowered through
    {!Loop_ir.Lower} and compiled once into a closure-composed kernel. *)
type fused = (string * Loop_ir.Compile.kernel) list

(** Lower and compile every plan of [compiled].  Done once per scenario;
    the evaluator remains a run-time parameter of the kernels, so the same
    [fused] serves every tick and survives [Degrade] demotion.  [fold],
    indexed by script name, is the interval-fact constant-folding oracle
    handed to {!Loop_ir.Compile.compile}. *)
val fuse : ?fold:(string -> Expr.t -> Value.t option) -> compiled -> fused

(** What runs a tick's decision phase: one evaluator driven sequentially
    through plan walking, a family of evaluators fanned out over a shared
    domain pool, or one evaluator driven through the fused kernels. *)
type engine =
  | Seq of Eval.t
  | Par of { pool : Sgl_util.Domain_pool.t; family : Eval.family }
  | Fus of { evaluator : Eval.t; kernels : fused }

(** One script group's failure under isolated execution.  [gf_suppressed]
    counts further failures of the same group on other chunks of a
    parallel tick. *)
type group_fault = {
  gf_script : string;
  gf_exn : exn;
  gf_backtrace : Printexc.raw_backtrace;
  gf_suppressed : int;
}

(** The executor: run every group's script on [engine] and return the
    combined effects of the tick, ready for post-processing.  Raises
    {!Exec_error} if a group names an unknown script.

    [delta] summarises what changed since the previous tick's unit array
    and is forwarded to [begin_tick]/[family.prepare] so the cross-tick
    index cache can revalidate instead of rebuilding; omitting it is
    always sound (cold tick).  [cols], when given, is the columnar mirror
    of [units]: it is forwarded to the evaluator (index builds scan typed
    columns) and into the fused kernels (float binds become column loads).
    Ticks are bit-identical with or without it.

    A [Par] engine splits the unit array into one contiguous chunk per
    family member, evaluates each chunk against the index cache
    [family.prepare] opened (lanes build what they probe, each structure
    once, under the cache's lock), and folds the per-chunk effect
    bags with the combination operator (+) in chunk order.  Because (+) is
    associative and commutative and the chunking is a pure function of
    [units], the result is independent of the chunk count and of domain
    scheduling.  A failing chunk re-raises through
    {!Sgl_util.Domain_pool.parallel_map}, which counts further lane
    failures.

    With [isolate = false] the fault list is always empty and exceptions
    propagate untouched.  With [isolate = true] every group accumulates
    into a private effect bag merged only when the group succeeded on every
    chunk, so a raising group contributes nothing and execution continues
    with the remaining groups; one {!group_fault} per failed group is
    returned, in group order, with further chunk failures of the same
    group counted in [gf_suppressed].  Fault-free, the isolated result is
    bit-identical to the plain one on integral workloads. *)
val execute :
  ?delta:Delta.t ->
  ?cols:Colstore.t ->
  compiled ->
  engine ->
  isolate:bool ->
  units:Tuple.t array ->
  groups:group list ->
  rand_for:(key:int -> int -> int) ->
  Combine.Acc.t * group_fault list

(** [execute] on a [Seq evaluator] engine, without isolation. *)
val run_tick :
  ?delta:Delta.t ->
  ?cols:Colstore.t ->
  compiled ->
  evaluator:Eval.t ->
  units:Tuple.t array ->
  groups:group list ->
  rand_for:(key:int -> int -> int) ->
  Combine.Acc.t

(** [execute] on a [Par { pool; family }] engine, without isolation. *)
val run_tick_parallel :
  ?delta:Delta.t ->
  ?cols:Colstore.t ->
  compiled ->
  pool:Sgl_util.Domain_pool.t ->
  family:Eval.family ->
  units:Tuple.t array ->
  groups:group list ->
  rand_for:(key:int -> int -> int) ->
  Combine.Acc.t

(** [execute] on a [Fus { evaluator; kernels = fused }] engine, without
    isolation.  Bit-identical to {!run_tick} with the same evaluator:
    kernels mirror the interpreter's expression semantics exactly, and the
    reordering introduced by operator fusion only permutes contributions to
    the commutative ⊕-accumulator (rule V003 validates each lowering).
    Fires the ["fused.kernel"] injection point per group, after
    ["exec.group"]. *)
val run_tick_fused :
  ?delta:Delta.t ->
  ?cols:Colstore.t ->
  compiled ->
  fused:fused ->
  evaluator:Eval.t ->
  units:Tuple.t array ->
  groups:group list ->
  rand_for:(key:int -> int -> int) ->
  Combine.Acc.t
