(** Pluggable aggregate evaluators (Section 6): the naive O(n)-per-query
    scanner and the indexed evaluator driving the Section 5.3/5.4 index
    structures.  Both agree exactly with the reference interpreter. *)

open Sgl_relalg

type eval_stats = {
  mutable index_builds : int;
  mutable index_probes : int;
  mutable naive_scans : int;
  mutable uniform_hits : int;
  mutable index_reuses : int;
      (** structures carried over from the previous tick by the cross-tick
          cache instead of being rebuilt *)
  mutable build_seconds : float;
}

type t = {
  name : string;
  begin_tick : ?delta:Delta.t -> ?cols:Colstore.t -> Tuple.t array -> unit;
      (** Open a tick over [units].  [delta] summarises what changed since
          the previous tick's unit array; when present and non-structural,
          the indexed evaluators revalidate cached structures against it
          instead of dropping them.  Omitting [delta] is always sound: the
          cache goes cold and everything rebuilds.  [cols], when given, is
          a columnar mirror of [units] (same rows, same order): index
          builds then scan contiguous typed columns instead of boxed rows.
          It is purely an access-path hint — results are bit-identical
          with or without it, and a mirror that does not cover [units] is
          ignored. *)
  eval_agg : agg_id:int -> rows:Tuple.t array -> rands:(int -> int) array -> Value.t array;
  apply_aoe :
    pred:Predicate.t ->
    updates:(int * Expr.t) list ->
    contributors:Tuple.t array ->
    contributor_rands:(int -> int) array ->
    acc:Combine.Acc.t ->
    unit;
  stats : eval_stats;
}

val fresh_stats : unit -> eval_stats
val naive : schema:Schema.t -> aggregates:Aggregate.t array -> t

(** [indexed ?share ~schema ~aggregates] builds the Section 5.3/5.4
    evaluator.  With [share] (the default), instances whose access paths
    agree share one index group — Section 6's "all divisible queries share
    the same range tree"; [~share:false] gives every instance private trees
    (the ablation baseline). *)
val indexed : ?share:bool -> schema:Schema.t -> aggregates:Aggregate.t array -> unit -> t

(** A family of indexed evaluators over one shared per-tick index cache,
    for the parallel decision phase: one member per chunk of the unit
    array, each safe to drive from its own domain once [prepare] has run
    on the coordinating domain.

    [prepare ?delta ?cols units] opens the tick on the shared cache
    exactly as the sequential evaluator's [begin_tick] does: it
    revalidates cached structures against [delta] when given and drops
    them otherwise.  It builds nothing.  Members then build what their
    probes touch, lazily: every index structure is a once-cell, built by
    whichever lane reaches it first under the context's lock and published
    exactly once.  A family therefore builds the same structures as
    {!indexed} over the same ticks, whatever the number of members.  The
    exception is the area-effect contributor index: it is call-local to
    one [apply_aoe], so each lane holding contributors builds its own. *)
type family = {
  members : t array;
  prepare : ?delta:Delta.t -> ?cols:Colstore.t -> Tuple.t array -> unit;
}

val indexed_family :
  ?share:bool -> schema:Schema.t -> aggregates:Aggregate.t array -> chunks:int -> unit -> family

(** Counter totals across every member (for reporting). *)
val family_stats : family -> eval_stats

(** [explain ~schema ~aggregates ()] renders the compiled plan of every
    aggregate instance — chosen strategy, index group, access path —
    annotated with the live counters the evaluators have accumulated in
    the ambient {!Sgl_util.Telemetry} registry (batches, probes, rows
    scanned, prefix-aggregate vs. enumeration vs. sweep vs. uniform
    answers per instance and for the area-effect indexes; builds and
    cache reuses per group).  Its totals line sums that breakdown: builds
    and seconds from the [eval.index_build_s] histogram, reuses over the
    groups, probes over the instances.  Since [Telemetry.reset] they
    equal the report's counts.  Group assignment is deterministic, so
    the mapping matches any evaluator built with the same
    [share]/[schema]/[aggregates].  With telemetry disabled all counters
    render as zero. *)
val explain : ?share:bool -> schema:Schema.t -> aggregates:Aggregate.t array -> unit -> string
