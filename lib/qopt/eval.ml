(* Pluggable aggregate evaluators (Section 6: "two pluggable versions of
   our aggregate query evaluator").

   [naive]   — every aggregate is a fresh O(n) scan; every area effect is a
               fresh O(n) application: O(n^2) per tick overall.
   [indexed] — per-tick in-memory indexes chosen by [Agg_plan]: shared
               prefix-aggregate range trees for divisible aggregates, the
               sweep-line for constant-window min/max, kD-trees for nearest
               neighbours, and the Section 5.4 index for combining area
               effects; O(n log n) per tick.

   Following Section 6 ("All divisible queries ... share the same range
   tree"), aggregate instances whose access paths agree — same categorical
   partition attributes, same box dimensions, same data filter — share one
   index *group*: one categorical partitioning, one tree per partition whose
   leaves carry the union of every member's statistics.  [indexed ~share:
   false] disables the sharing for the ablation benchmarks.

   Both evaluators must agree *exactly* with the reference interpreter; the
   integration suite checks tick-by-tick equality on integral-coordinate
   workloads, where all float sums are exact. *)

open Sgl_relalg
open Sgl_index
open Sgl_util

type eval_stats = {
  mutable index_builds : int;
  mutable index_probes : int;
  mutable naive_scans : int;
  mutable uniform_hits : int;
  mutable index_reuses : int; (* structures carried across ticks by the cache *)
  mutable build_seconds : float;
}

let fresh_stats () =
  { index_builds = 0; index_probes = 0; naive_scans = 0; uniform_hits = 0; index_reuses = 0;
    build_seconds = 0. }

(* ------------------------------------------------------------------ *)
(* Telemetry.

   [eval_stats] is the per-evaluator source of truth for the report —
   each family member owns its record, so lanes never contend — and the
   simulation's ledger sums it.  The ambient registry holds only the
   breakdown behind EXPLAIN: per-aggregate-instance counters (how each
   instance's probes were actually answered — prefix-aggregate lookups,
   enumerations, sweeps, uniform sharing, or naive scans — and how many
   rows each answer touched), per-group build and reuse counts, and the
   build-duration histogram.  EXPLAIN's totals are sums of that
   breakdown. *)

let tel_build_hist = Telemetry.histogram "eval.index_build_s"

(* Per-aggregate-instance counters (EXPLAIN's row of live statistics).
   Instances are named by position in the program's aggregate array, so
   [explain] can re-derive the same names from the compiled program. *)
type agg_tel = {
  tel_batches : Telemetry.counter; (* eval_agg batches *)
  tel_probes : Telemetry.counter; (* index probes made for this instance *)
  tel_rows : Telemetry.counter; (* rows scanned (naive or enumerated candidates) *)
  tel_prefix : Telemetry.counter; (* probes answered from prefix-aggregate leaves *)
  tel_enum : Telemetry.counter; (* probes answered by enumerate-and-filter *)
  tel_sweep : Telemetry.counter; (* probes answered by a sweep-line pass *)
  tel_uniform : Telemetry.counter; (* batches answered once and shared *)
}

let agg_tel (label : string) : agg_tel =
  let c suffix = Telemetry.counter (Printf.sprintf "agg.%s.%s" label suffix) in
  {
    tel_batches = c "batches";
    tel_probes = c "probes";
    tel_rows = c "rows_scanned";
    tel_prefix = c "prefix_answers";
    tel_enum = c "enum_answers";
    tel_sweep = c "sweep_answers";
    tel_uniform = c "uniform_answers";
  }

let agg_tels (aggregates : Aggregate.t array) : agg_tel array =
  Array.init (Array.length aggregates) (fun i -> agg_tel (string_of_int i))

(* The synthetic AoE aggregates are call-local and unnumbered; they share
   one instance-counter set. *)
let aoe_tel = agg_tel "aoe"

type t = {
  name : string;
  (* [delta] describes what changed since the previous [begin_tick]'s unit
     array; [None] (or a structural delta) forces a cold rebuild of every
     cached structure.  [cols] is the columnar mirror of [units] when the
     caller maintains one — index builds then scan contiguous typed columns
     instead of boxed rows.  Purely an access-path hint: results are
     bit-identical with or without it. *)
  begin_tick : ?delta:Delta.t -> ?cols:Colstore.t -> Tuple.t array -> unit;
  (* Values of aggregate instance [agg_id] for each probing row. *)
  eval_agg : agg_id:int -> rows:Tuple.t array -> rands:(int -> int) array -> Value.t array;
  (* Apply one All-target effect clause, from each contributor row to every
     unit its predicate selects, into the combination accumulator. *)
  apply_aoe :
    pred:Predicate.t ->
    updates:(int * Expr.t) list ->
    contributors:Tuple.t array ->
    contributor_rands:(int -> int) array ->
    acc:Combine.Acc.t ->
    unit;
  stats : eval_stats;
}

let dummy_rand (_ : int) = 0

(* ------------------------------------------------------------------ *)
(* Naive evaluation: one scan of the unit array per probing row (or per
   AoE contributor).  The naive evaluator is nothing else; the indexed
   evaluator falls back to it for instances and effects no index
   answers. *)

let naive_eval_agg (stats : eval_stats) ~(tel : agg_tel) ~(units : Tuple.t array)
    ~(agg : Aggregate.t) ~(rows : Tuple.t array) ~(rands : (int -> int) array) : Value.t array =
  Telemetry.Counter.add tel.tel_rows (Array.length rows * Array.length units);
  Array.mapi
    (fun i row ->
      stats.naive_scans <- stats.naive_scans + 1;
      Aggregate.eval_naive ~units ~ctx:{ Expr.u = row; e = None; rand = rands.(i) } agg)
    rows

let naive_apply_aoe (stats : eval_stats) ~(schema : Schema.t) ~(units : Tuple.t array)
    ~(pred : Predicate.t) ~(updates : (int * Expr.t) list) ~(contributors : Tuple.t array)
    ~(contributor_rands : (int -> int) array) ~(acc : Combine.Acc.t) : unit =
  Array.iteri
    (fun i contributor ->
      stats.naive_scans <- stats.naive_scans + 1;
      let rand = contributor_rands.(i) in
      Array.iter
        (fun target ->
          let ctx = { Expr.u = contributor; e = Some target; rand } in
          if Predicate.holds ctx pred then begin
            let key = Tuple.key schema target in
            List.iter
              (fun (attr, expr) ->
                Combine.Acc.add_attr acc ~base:target ~key attr (Expr.eval ctx expr))
              updates
          end)
        units)
    contributors

let naive_core ~(schema : Schema.t) ~(aggregates : Aggregate.t array)
    ~(units : Tuple.t array ref) ~(stats : eval_stats)
    ~(begin_tick : ?delta:Delta.t -> ?cols:Colstore.t -> Tuple.t array -> unit) : t =
  let tels = agg_tels aggregates in
  {
    name = "naive";
    begin_tick;
    eval_agg =
      (fun ~agg_id ~rows ~rands ->
        let tel = tels.(agg_id) in
        Telemetry.Counter.incr tel.tel_batches;
        naive_eval_agg stats ~tel ~units:!units ~agg:aggregates.(agg_id) ~rows ~rands);
    apply_aoe =
      (fun ~pred ~updates ~contributors ~contributor_rands ~acc ->
        naive_apply_aoe stats ~schema ~units:!units ~pred ~updates ~contributors
          ~contributor_rands ~acc);
    stats;
  }

let naive ~(schema : Schema.t) ~(aggregates : Aggregate.t array) : t =
  let units = ref [||] in
  let stats = fresh_stats () in
  naive_core ~schema ~aggregates ~units ~stats ~begin_tick:(fun ?delta:_ ?cols:_ e -> units := e)

(* ------------------------------------------------------------------ *)
(* Index groups: instances that can share trees *)

(* Instances share a group when they partition the data the same way, box
   the same continuous attributes, and pre-filter the same data subset.
   Per-prober parts (bound expressions, categorical requirements, probe
   residuals) stay per instance. *)
type group = {
  group_id : int;
  cat_attrs : int list; (* sorted partition-key attributes *)
  box_attrs : int list; (* tree dimensions, ascending *)
  data_filter : Predicate.t;
  mutable stats_exprs : Expr.t list; (* deduped union of member statistics *)
  mutable n_stats : int;
  g_builds : Telemetry.counter; (* per-group structure builds, for EXPLAIN *)
  g_reuses : Telemetry.counter; (* per-group cache reuse, for EXPLAIN *)
}

(* A group with no members yet, and its scoped counters:
   [group.<id>.builds] counts the group's index plus every per-partition
   structure built for it, [group.<id>.reuses] the ones the cross-tick
   cache carried over instead, so EXPLAIN can show cache behaviour per
   access path.  The call-local AoE groups all count under id -1. *)
let new_group ~(group_id : int)
    ((cat_attrs, box_attrs, data_filter) : int list * int list * Predicate.t) : group =
  let counter what = Telemetry.counter (Printf.sprintf "group.%d.%s" group_id what) in
  { group_id; cat_attrs; box_attrs; data_filter; stats_exprs = []; n_stats = 0;
    g_builds = counter "builds"; g_reuses = counter "reuses" }

(* A member's view of its group: where its statistics landed. *)
type membership = {
  group : group;
  stat_map : int array; (* instance statistic slot -> group column *)
}

let group_signature (access : Agg_plan.access) =
  let cat_attrs =
    List.sort_uniq compare
      (List.map fst access.Agg_plan.cat_eqs @ List.map fst access.Agg_plan.cat_nes)
  in
  let box_attrs = List.map (fun (b : Agg_plan.box_dim) -> b.Agg_plan.attr) access.Agg_plan.boxes in
  (cat_attrs, box_attrs, access.Agg_plan.data_filter)

(* Add an instance's statistics into a group, deduplicating structurally
   equal expressions so e.g. the shared count column is stored once. *)
let join_group (g : group) (stats_exprs : Expr.t list) : membership =
  let map =
    List.map
      (fun expr ->
        let rec find i = function
          | [] -> None
          | x :: rest -> if x = expr then Some i else find (i + 1) rest
        in
        match find 0 g.stats_exprs with
        | Some i -> i
        | None ->
          g.stats_exprs <- g.stats_exprs @ [ expr ];
          g.n_stats <- g.n_stats + 1;
          g.n_stats - 1)
      stats_exprs
  in
  { group = g; stat_map = Array.of_list map }

(* ------------------------------------------------------------------ *)
(* Built indexes: one per group per tick, sub-structures lazy

   Every index structure — a group's index and each partition's divisible,
   enumeration and kD structures — lives in a once-cell: built on first
   use, published exactly once, for every evaluator and every lane.  The
   fast path is one [Atomic.get]; a miss takes the owning context's lock,
   looks again (another lane may have published meanwhile), builds and
   publishes.  A build that raises (an [index.build] injection, say)
   releases the lock and leaves the cell empty.  So a parallel family
   builds exactly the structures its probes touch, the same set the
   sequential evaluator builds, and each one once. *)

type div_struct =
  | Div_total of float array (* no box dims: the partition's statistic sum *)
  | Div_range of Range_tree.t (* 1 or >= 3 dims *)
  | Div_cascade of Cascade_tree.t (* the 2-d fast path *)

type sub_index = {
  members : int array; (* data ids, ascending *)
  divisible : div_struct option Atomic.t;
  enum_tree : Range_tree.t option Atomic.t;
  kds : ((int * int) * Kd_tree.t) list Atomic.t; (* per (ex, ey) coordinate pair *)
}

(* The slow path of every once-cell: the caller's [lookup] missed without
   the lock.  Under [lock], look again, else build and publish. *)
let once (lock : Mutex.t) ~(lookup : unit -> 'a option) ~(build : unit -> 'a)
    ~(publish : 'a -> unit) : 'a =
  Mutex.protect lock (fun () ->
      match lookup () with
      | Some x -> x
      | None ->
        let x = build () in
        publish x;
        x)

type built_index = {
  mutable data : Tuple.t array;
  (* [epoch] versions the entry against the owning context's tick counter:
     a cache hit is only valid when the epochs agree, which makes it
     impossible for a retried or rolled-back tick to probe structures the
     per-tick validation pass has not seen (they read as misses and are
     rebuilt).  Entries revalidated across ticks are re-stamped and their
     [data] swapped to the new unit array; the trees themselves bake
     coordinates and statistics at build time, so they stay valid exactly
     when their input attributes are untouched on their members. *)
  mutable epoch : int;
  group : group;
  cat : sub_index Cat_index.t;
  (* Columnar mirror of [data] when the caller maintains one; sub-structure
     builds then read coordinates/statistics from contiguous typed columns.
     Swapped alongside [data] on revalidation. *)
  mutable cols : Colstore.t option;
  lock : Mutex.t; (* guards the sub-structure cells' slow path *)
}

(* Coordinate accessor for attribute [attr] of [bi.data]: a contiguous
   column read when the store mirrors the data and the column is numeric,
   otherwise the boxed row read.  [Colstore.float_reader] guarantees the
   same float as [Value.to_float], so the two paths are bit-identical. *)
let coord_fn (bi : built_index) (attr : int) : int -> float =
  let fallback id = Value.to_float (Tuple.get bi.data.(id) attr) in
  match bi.cols with
  | Some cs when attr < Schema.arity (Colstore.schema cs) -> (
    match Colstore.float_reader cs attr with Some read -> read | None -> fallback)
  | _ -> fallback

(* Per-statistic accessors: a bare attribute reference reads its column
   directly ([Expr.eval_float] of [EAttr j] is [Value.to_float row.(j)],
   which the column reader reproduces exactly); anything else evaluates
   the expression against the boxed row. *)
let stat_fns (bi : built_index) : (int -> float) array =
  Array.of_list
    (List.map
       (fun e ->
         let fallback id =
           Expr.eval_float { Expr.u = [||]; e = Some bi.data.(id); rand = dummy_rand } e
         in
         match (e, bi.cols) with
         | Expr.EAttr j, Some cs when j < Schema.arity (Colstore.schema cs) -> (
           match Colstore.float_reader cs j with Some read -> read | None -> fallback)
         | _ -> fallback)
       bi.group.stats_exprs)

(* Shared build bookkeeping: the evaluator-local stats record, the
   per-group build counter, and the build-duration histogram. *)
let count_build (st : eval_stats) (group : group) (t0 : float) : unit =
  let dt = Timer.now () -. t0 in
  st.index_builds <- st.index_builds + 1;
  st.build_seconds <- st.build_seconds +. dt;
  Telemetry.Counter.incr group.g_builds;
  Telemetry.Histogram.observe tel_build_hist dt

(* [cols] is trusted as given: [open_tick] is the one place that decides
   whether a mirror covers the unit array. *)
let build_index (st : eval_stats) ~(lock : Mutex.t) ~(epoch : int) ~(cols : Colstore.t option)
    ~(group : group) ~(data : Tuple.t array) : built_index =
  Fault_inject.hit "index.build";
  let t0 = Timer.now () in
  let n = Array.length data in
  let pass id =
    let ctx = { Expr.u = [||]; e = Some data.(id); rand = dummy_rand } in
    Predicate.holds ctx group.data_filter
  in
  let ids = Array.of_list (List.filter pass (List.init n (fun i -> i))) in
  let keys =
    match cols with
    | Some cs ->
      let readers =
        List.map
          (fun a ->
            match Colstore.int_reader cs a with
            | Some r -> r
            | None -> fun id -> Value.to_int (Tuple.get data.(id) a))
          group.cat_attrs
      in
      fun id -> List.map (fun r -> r id) readers
    | None -> fun id -> List.map (fun a -> Value.to_int (Tuple.get data.(id) a)) group.cat_attrs
  in
  let cat =
    Cat_index.create ~keys ~ids ~builder:(fun members ->
        { members; divisible = Atomic.make None; enum_tree = Atomic.make None;
          kds = Atomic.make [] })
  in
  count_build st group t0;
  { data; epoch; group; cat; cols; lock }

(* The partitions a prober may read, given the *instance's* categorical
   requirements. *)
let accepted_partitions (bi : built_index) ~(access : Agg_plan.access) ~(row : Tuple.t)
    ~(rand : int -> int) : sub_index list =
  let ctx = { Expr.u = row; e = None; rand } in
  let need_eq = List.map (fun (a, rhs) -> (a, Expr.eval_int ctx rhs)) access.Agg_plan.cat_eqs in
  let need_ne = List.map (fun (a, rhs) -> (a, Expr.eval_int ctx rhs)) access.Agg_plan.cat_nes in
  let accept key =
    let kv = List.combine bi.group.cat_attrs key in
    List.for_all (fun (a, v) -> List.assoc a kv = v) need_eq
    && List.for_all (fun (a, v) -> List.assoc a kv <> v) need_ne
  in
  Cat_index.find_matching bi.cat ~accept

(* Box intervals for one prober, from the instance's bound expressions. *)
let probe_box (access : Agg_plan.access) ~(row : Tuple.t) ~(rand : int -> int) : Interval.t list =
  let ctx = { Expr.u = row; e = None; rand } in
  List.map
    (fun (b : Agg_plan.box_dim) ->
      let bound side =
        Option.map
          (fun (bd : Predicate.bound) ->
            (Expr.eval_float ctx bd.Predicate.value, not bd.Predicate.inclusive))
          side
      in
      let lo, lo_strict =
        match bound b.Agg_plan.lo with
        | None -> (neg_infinity, false)
        | Some (v, s) -> (v, s)
      in
      let hi, hi_strict =
        match bound b.Agg_plan.hi with
        | None -> (infinity, false)
        | Some (v, s) -> (v, s)
      in
      Interval.make ~lo ~lo_strict ~hi ~hi_strict ())
    access.Agg_plan.boxes

let ensure_divisible st (bi : built_index) (sub : sub_index) : div_struct =
  match Atomic.get sub.divisible with
  | Some d -> d
  | None ->
    once bi.lock
      ~lookup:(fun () -> Atomic.get sub.divisible)
      ~publish:(fun d -> Atomic.set sub.divisible (Some d))
      ~build:(fun () ->
        let t0 = Timer.now () in
        let m = bi.group.n_stats in
        let fns = stat_fns bi in
        let stat id = Array.map (fun f -> f id) fns in
        let coord attr = coord_fn bi attr in
        let d =
          match bi.group.box_attrs with
          | [] ->
            let total = Array.make m 0. in
            Array.iter
              (fun id ->
                let s = stat id in
                for j = 0 to m - 1 do
                  total.(j) <- total.(j) +. s.(j)
                done)
              sub.members;
            Div_total total
          | [ a ] ->
            Div_range (Range_tree.build ~dims:[ coord a ] ~stats:(Some stat) ~m sub.members)
          | [ ax; ay ] ->
            Div_cascade (Cascade_tree.build ~x:(coord ax) ~y:(coord ay) ~stats:stat ~m sub.members)
          | many ->
            Div_range
              (Range_tree.build ~dims:(List.map coord many) ~stats:(Some stat) ~m sub.members)
        in
        count_build st bi.group t0;
        d)

let ensure_enum_tree st (bi : built_index) (sub : sub_index) : Range_tree.t =
  match Atomic.get sub.enum_tree with
  | Some t -> t
  | None ->
    once bi.lock
      ~lookup:(fun () -> Atomic.get sub.enum_tree)
      ~publish:(fun t -> Atomic.set sub.enum_tree (Some t))
      ~build:(fun () ->
        let t0 = Timer.now () in
        let coord attr = coord_fn bi attr in
        let dims =
          match bi.group.box_attrs with
          | [] -> [ (fun _ -> 0.) ] (* degenerate: everything in one slab *)
          | attrs -> List.map coord attrs
        in
        let t = Range_tree.build ~dims ~stats:None ~m:0 sub.members in
        count_build st bi.group t0;
        t)

let ensure_kd st (bi : built_index) ~(ex : int) ~(ey : int) (sub : sub_index) : Kd_tree.t =
  let lookup () = List.assoc_opt (ex, ey) (Atomic.get sub.kds) in
  match lookup () with
  | Some t -> t
  | None ->
    once bi.lock ~lookup
      ~publish:(fun t -> Atomic.set sub.kds (((ex, ey), t) :: Atomic.get sub.kds))
      ~build:(fun () ->
        let t0 = Timer.now () in
        let coord attr = coord_fn bi attr in
        let t = Kd_tree.build ~x:(coord ex) ~y:(coord ey) sub.members in
        count_build st bi.group t0;
        t)

(* ------------------------------------------------------------------ *)
(* Batch evaluation of one aggregate against one built index *)

let finish_components ~(agg : Aggregate.t) ~(row : Tuple.t) ~(rand : int -> int)
    (per_component : Value.t option list) : Value.t =
  let ctx = { Expr.u = row; e = None; rand } in
  let on_empty () =
    match agg.Aggregate.default with
    | Some d -> Expr.eval ctx d
    | None ->
      raise
        (Aggregate.Aggregate_error
           (Fmt.str "aggregate %s is empty and declares no default" agg.Aggregate.name))
  in
  match per_component with
  | [ Some v ] -> v
  | [ None ] -> on_empty ()
  | [ Some a; Some b ] -> Value.make_vec a b
  | [ _; _ ] -> on_empty ()
  | _ ->
    raise (Aggregate.Aggregate_error (Fmt.str "aggregate %s has invalid arity" agg.Aggregate.name))

(* Deterministic "better" for extremal folds: minimize/maximize the value,
   break ties toward the smaller data id — exactly the naive scan's
   behaviour when data ids are array positions. *)
let fold_best ~(maximize : bool) (best : (float * int) option) (candidate : float * int) :
    (float * int) option =
  match best with
  | None -> Some candidate
  | Some (bv, bid) ->
    let cv, cid = candidate in
    let better =
      if maximize then cv > bv || (cv = bv && cid < bid) else cv < bv || (cv = bv && cid < bid)
    in
    if better then Some candidate else best

let rec eval_indexed_batch st ~(tel : agg_tel) ~(strategy : Agg_plan.strategy)
    ~(agg : Aggregate.t) ~(membership : membership) ~(bi : built_index)
    ~(rows : Tuple.t array) ~(rands : (int -> int) array) : Value.t array =
  match strategy with
  | Agg_plan.Uniform | Agg_plan.Naive_only _ ->
    invalid_arg "eval_indexed_batch: not an indexed strategy"
  | Agg_plan.Indexed { access; components; stats_exprs = _; sweep; enumerate } ->
    let n_rows = Array.length rows in
    (* Pre-compute sweep results per extremal component when applicable. *)
    let sweep_results : (float * int) option array option =
      match (sweep, components) with
      | Some info, [ C_extremal { kind } ] ->
        let maximize =
          match kind with
          | Aggregate.Max_agg _ | Aggregate.Arg_max _ -> true
          | _ -> false
        in
        let objective =
          match kind with
          | Aggregate.Min_agg e | Aggregate.Max_agg e -> e
          | Aggregate.Arg_min { objective; _ } | Aggregate.Arg_max { objective; _ } -> objective
          | _ -> assert false
        in
        let combined : (float * int) option array = Array.make n_rows None in
        let skind = if maximize then Sweepline.Max else Sweepline.Min in
        (* run one sweep per partition over the probers that accept it *)
        let partition_keys = Cat_index.partition_keys bi.cat in
        List.iter
          (fun key ->
            match Cat_index.find bi.cat key with
            | None -> ()
            | Some sub ->
              let cx = coord_fn bi info.Agg_plan.x_data in
              let cy = coord_fn bi info.Agg_plan.y_data in
              let data =
                Array.map
                  (fun id ->
                    let v =
                      Expr.eval_float
                        { Expr.u = [||]; e = Some bi.data.(id); rand = dummy_rand }
                        objective
                    in
                    { Sweepline.x = cx id; y = cy id; value = v; id })
                  sub.members
              in
              let queries = Varray.create { Sweepline.qx = 0.; qy = 0.; qid = 0 } in
              Array.iteri
                (fun i row ->
                  let accepted = accepted_partitions bi ~access ~row ~rand:rands.(i) in
                  if List.memq sub accepted then
                    Varray.push queries
                      {
                        Sweepline.qx = Value.to_float (Tuple.get row info.Agg_plan.x_center);
                        qy = Value.to_float (Tuple.get row info.Agg_plan.y_center);
                        qid = i;
                      })
                rows;
              let nq = Varray.length queries in
              st.index_probes <- st.index_probes + nq;
              Telemetry.Counter.add tel.tel_probes nq;
              let res =
                Sweepline.run skind ~data ~queries:(Varray.to_array queries)
                  ~rx:info.Agg_plan.rx ~ry:info.Agg_plan.ry ~n_queries:n_rows
              in
              Array.iteri
                (fun i r ->
                  match r with
                  | None -> ()
                  | Some (id, v) -> combined.(i) <- fold_best ~maximize combined.(i) (v, id))
                res)
          partition_keys;
        Some combined
      | _ -> None
    in
    Array.mapi
      (fun i row ->
        let rand = rands.(i) in
        let parts = accepted_partitions bi ~access ~row ~rand in
        let box = probe_box access ~row ~rand in
        let per_component =
          List.map
            (fun comp ->
              match comp with
              | Agg_plan.C_divisible { kind; stat_offset; stat_count } ->
                if enumerate then
                  eval_enum_component st ~tel ~bi ~access ~row ~rand ~parts ~box kind
                else begin
                  let total = Array.make bi.group.n_stats 0. in
                  List.iter
                    (fun sub ->
                      let d = ensure_divisible st bi sub in
                      st.index_probes <- st.index_probes + 1;
                      Telemetry.Counter.incr tel.tel_probes;
                      let part =
                        match (d, box) with
                        | Div_total t, _ -> t
                        | Div_range t, ivs -> Range_tree.query_stats t ivs
                        | Div_cascade t, [ ivx; ivy ] -> Cascade_tree.query t ~x:ivx ~y:ivy
                        | Div_cascade _, _ -> assert false
                      in
                      for j = 0 to Array.length total - 1 do
                        total.(j) <- total.(j) +. part.(j)
                      done)
                    parts;
                  Telemetry.Counter.incr tel.tel_prefix;
                  (* pull this instance's statistics out of the group's
                     shared columns *)
                  let mine =
                    Array.init stat_count (fun j -> total.(membership.stat_map.(stat_offset + j)))
                  in
                  Aggregate.finish_divisible kind mine
                end
              | Agg_plan.C_extremal { kind } -> begin
                match sweep_results with
                | Some combined -> begin
                  Telemetry.Counter.incr tel.tel_sweep;
                  match combined.(i) with
                  | None -> None
                  | Some (value, id) -> finish_extremal ~bi ~row ~rand kind value id
                end
                | None ->
                  eval_enum_component st ~tel ~bi ~access ~row ~rand ~parts ~box kind
              end
              | Agg_plan.C_nearest { kind } -> begin
                match kind with
                | Aggregate.Nearest { ex = Expr.EAttr exa; ey = Expr.EAttr eya; ux; uy; result }
                  -> begin
                  let ctx = { Expr.u = row; e = None; rand } in
                  let qx = Expr.eval_float ctx ux and qy = Expr.eval_float ctx uy in
                  let residual = access.Agg_plan.probe_residual in
                  let filter id =
                    let e = bi.data.(id) in
                    List.for_all2
                      (fun iv (b : Agg_plan.box_dim) ->
                        Interval.mem iv (Value.to_float (Tuple.get e b.Agg_plan.attr)))
                      box access.Agg_plan.boxes
                    && Predicate.holds { Expr.u = row; e = Some e; rand } residual
                  in
                  let best =
                    List.fold_left
                      (fun best sub ->
                        let kd = ensure_kd st bi ~ex:exa ~ey:eya sub in
                        st.index_probes <- st.index_probes + 1;
                        Telemetry.Counter.incr tel.tel_probes;
                        match Kd_tree.nearest ~filter kd ~qx ~qy with
                        | None -> best
                        | Some (id, d2) -> begin
                          match best with
                          | Some (bd2, bid) when bd2 < d2 || (bd2 = d2 && bid < id) -> best
                          | _ -> Some (d2, id)
                        end)
                      None parts
                  in
                  match best with
                  | None -> None
                  | Some (_, id) -> Some (Expr.eval { Expr.u = row; e = Some bi.data.(id); rand } result)
                end
                | _ -> assert false
              end)
            components
        in
        finish_components ~agg ~row ~rand per_component)
      rows

(* Enumeration path: report the box contents, filter residuals, and fall
   back to the one-component naive evaluation over the candidates. *)
and eval_enum_component st ~(tel : agg_tel) ~(bi : built_index)
    ~(access : Agg_plan.access) ~(row : Tuple.t)
    ~(rand : int -> int) ~(parts : sub_index list) ~(box : Interval.t list)
    (kind : Aggregate.kind) : Value.t option =
  let candidates = Varray.create 0 in
  List.iter
    (fun sub ->
      let tree = ensure_enum_tree st bi sub in
      st.index_probes <- st.index_probes + 1;
      Telemetry.Counter.incr tel.tel_probes;
      let ivs = if bi.group.box_attrs = [] then [ Interval.everything ] else box in
      Range_tree.query_enum tree ivs (fun id -> Varray.push candidates id))
    parts;
  let ids = Varray.to_array candidates in
  Array.sort compare ids (* restore data order so ties match the naive scan *);
  Telemetry.Counter.incr tel.tel_enum;
  Telemetry.Counter.add tel.tel_rows (Array.length ids);
  let cand_rows = Array.map (fun id -> bi.data.(id)) ids in
  Aggregate.eval_kind_naive ~units:cand_rows
    ~ctx:{ Expr.u = row; e = None; rand }
    ~where_:access.Agg_plan.probe_residual kind

and finish_extremal ~(bi : built_index) ~(row : Tuple.t) ~(rand : int -> int)
    (kind : Aggregate.kind) (value : float) (id : int) : Value.t option =
  match kind with
  | Aggregate.Min_agg _ | Aggregate.Max_agg _ -> Some (Value.Float value)
  | Aggregate.Arg_min { result; _ } | Aggregate.Arg_max { result; _ } ->
    Some (Expr.eval { Expr.u = row; e = Some bi.data.(id); rand } result)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Uniform evaluation: compute once, share across the batch. *)

let eval_uniform st ~(tel : agg_tel) ~(agg : Aggregate.t) ~(units : Tuple.t array)
    ~(rows : Tuple.t array) ~(rands : (int -> int) array) : Value.t array =
  st.uniform_hits <- st.uniform_hits + 1;
  Telemetry.Counter.incr tel.tel_uniform;
  let ctx = { Expr.u = [||]; e = None; rand = dummy_rand } in
  let per_kind =
    List.map
      (fun kind -> Aggregate.eval_kind_naive ~units ~ctx ~where_:agg.Aggregate.where_ kind)
      agg.Aggregate.kinds
  in
  Array.mapi (fun i row -> finish_components ~agg ~row ~rand:rands.(i) per_kind) rows

(* ------------------------------------------------------------------ *)
(* The indexed evaluator *)

(* Construction state shared by every evaluator built over one per-tick
   index cache.  The plain [indexed] evaluator owns a private context; an
   [indexed_family] shares one context across its members so the parallel
   decision phase probes one set of indexes from every domain. *)
type indexed_ctx = {
  ctx_schema : Schema.t;
  ctx_aggregates : Aggregate.t array;
  strategies : Agg_plan.strategy array;
  memberships : membership option array;
  ctx_units : Tuple.t array ref;
  ctx_cols : Colstore.t option ref; (* columnar mirror of [ctx_units], when published *)
  cache : built_index option Atomic.t array; (* by group id; epoch-stamped once-cells *)
  lock : Mutex.t; (* the once-cells' slow path, for every lane *)
  mutable epoch : int; (* bumped once per [begin_tick]/[prepare] *)
}

let make_indexed_ctx ?(share = true) ~(schema : Schema.t) ~(aggregates : Aggregate.t array) () :
    indexed_ctx =
  let strategies = Array.map (Agg_plan.analyze schema) aggregates in
  (* Assign every Indexed instance to a group; with sharing disabled, each
     instance gets a private group. *)
  let groups : group Varray.t =
    Varray.create (new_group ~group_id:(-1) ([], [], []))
  in
  let memberships : membership option array =
    Array.map
      (fun strategy ->
        match strategy with
        | Agg_plan.Indexed { access; stats_exprs; _ } ->
          let cat_attrs, box_attrs, data_filter = group_signature access in
          let existing =
            if share then begin
              let found = ref None in
              Varray.iter
                (fun g ->
                  if !found = None && g.cat_attrs = cat_attrs && g.box_attrs = box_attrs
                     && g.data_filter = data_filter
                  then found := Some g)
                groups;
              !found
            end
            else None
          in
          let g =
            match existing with
            | Some g -> g
            | None ->
              let gid = Varray.length groups in
              let g = new_group ~group_id:gid (cat_attrs, box_attrs, data_filter) in
              Varray.push groups g;
              g
          in
          Some (join_group g stats_exprs)
        | Agg_plan.Uniform | Agg_plan.Naive_only _ -> None)
      strategies
  in
  {
    ctx_schema = schema;
    ctx_aggregates = aggregates;
    strategies;
    memberships;
    ctx_units = ref [||];
    ctx_cols = ref None;
    cache = Array.init (Varray.length groups) (fun _ -> Atomic.make None);
    lock = Mutex.create ();
    epoch = 0;
  }

(* ------------------------------------------------------------------ *)
(* Cross-tick cache validation.

   A cached group index was built over last tick's unit array; the delta
   summary says what the intervening mutation phases changed.  Reuse is
   decided structure by structure:

   - the categorical partitioning (and the data-filter pass behind it)
     survives when the partition-key attributes and every attribute the
     data filter reads are globally clean — then the same ids land in the
     same partitions, and only [data] needs swapping to the new array;
   - a per-partition sub-structure survives when its input attributes are
     globally clean, or when none of the partition's members is a dirty
     unit (its inputs may be dirty elsewhere, but not here);
   - everything else is dropped and rebuilt lazily on its next probe.

   Structural deltas (death, resurrection, reordering) invalidate
   everything: data ids are positional. *)

let pred_e_attrs (p : Predicate.t) : int list =
  List.concat_map Expr.e_slots (Predicate.conjuncts p)

let any_dirty (d : Delta.t) (attrs : int list) : bool = List.exists (Delta.dirty_attr d) attrs

(* Try to carry [bi] into the new tick described by [delta]; true on
   success (entry re-stamped, sub-structures pruned), false when the whole
   entry must be dropped. *)
let revalidate_index (st : eval_stats) (ctx : indexed_ctx) ~(delta : Delta.t)
    ~(units : Tuple.t array) (bi : built_index) : bool =
  if
    Array.length bi.data <> Array.length units
    || any_dirty delta bi.group.cat_attrs
    || any_dirty delta (pred_e_attrs bi.group.data_filter)
  then false
  else begin
    bi.data <- units;
    bi.cols <- !(ctx.ctx_cols);
    bi.epoch <- ctx.epoch;
    st.index_reuses <- st.index_reuses + 1;
    Telemetry.Counter.incr bi.group.g_reuses;
    let schema = ctx.ctx_schema in
    let no_dirty_units = Delta.dirty_key_count delta = 0 in
    let div_clean =
      not
        (any_dirty delta bi.group.box_attrs
        || List.exists (fun e -> any_dirty delta (Expr.e_slots e)) bi.group.stats_exprs)
    in
    let enum_clean = not (any_dirty delta bi.group.box_attrs) in
    List.iter
      (fun sub ->
        (* scanned only for partitions that hold a structure *)
        let partition_clean =
          lazy
            (no_dirty_units
            || not
                 (Array.exists
                    (fun id -> Delta.dirty_key delta (Tuple.key schema units.(id)))
                    sub.members))
        in
        let keep kept =
          if kept then begin
            st.index_reuses <- st.index_reuses + 1;
            Telemetry.Counter.incr bi.group.g_reuses
          end
        in
        (match Atomic.get sub.divisible with
        | None -> ()
        | Some _ ->
          if div_clean || Lazy.force partition_clean then keep true
          else Atomic.set sub.divisible None);
        (match Atomic.get sub.enum_tree with
        | None -> ()
        | Some _ ->
          if enum_clean || Lazy.force partition_clean then keep true
          else Atomic.set sub.enum_tree None);
        Atomic.set sub.kds
          (List.filter
             (fun ((ex, ey), _) ->
               let kept =
                 (not (Delta.dirty_attr delta ex || Delta.dirty_attr delta ey))
                 || Lazy.force partition_clean
               in
               keep kept;
               kept)
             (Atomic.get sub.kds)))
      (Cat_index.find_matching bi.cat ~accept:(fun _ -> true));
    true
  end

(* Open a tick on a shared context: bump the epoch, publish the unit
   array, and either revalidate the cache against the delta or drop it
   cold.  Structures that survive keep their epoch current; everything
   else reads as a miss. *)
let open_tick (ctx : indexed_ctx) (st : eval_stats) ?(delta : Delta.t option)
    ?(cols : Colstore.t option) (units : Tuple.t array) : unit =
  ctx.ctx_units := units;
  (* Only publish a mirror that actually covers [units]; anything else
     (mid-restore, ragged store) falls back to boxed reads everywhere. *)
  ctx.ctx_cols :=
    (match cols with
    | Some cs when Colstore.length cs = Array.length units && Colstore.rectangular cs -> Some cs
    | _ -> None);
  ctx.epoch <- ctx.epoch + 1;
  let keep =
    match delta with
    | Some d when not (Delta.structural d) -> revalidate_index st ctx ~delta:d ~units
    | None | Some _ -> fun _ -> false
  in
  Array.iter
    (fun slot ->
      match Atomic.get slot with
      | Some bi when not (keep bi) -> Atomic.set slot None
      | Some _ | None -> ())
    ctx.cache

(* A membership's group index: the group's once-cell in the shared cache.
   Entries from an earlier epoch are misses: a quarantine retry or a
   degraded re-run must never probe a structure [open_tick] has not
   revalidated for the current unit array. *)
let group_index (ctx : indexed_ctx) (st : eval_stats) (m : membership) : built_index =
  let slot = ctx.cache.(m.group.group_id) in
  let lookup () =
    match Atomic.get slot with
    | Some bi when bi.epoch = ctx.epoch -> Some bi
    | Some _ | None -> None
  in
  match lookup () with
  | Some bi -> bi
  | None ->
    once ctx.lock ~lookup
      ~publish:(fun bi -> Atomic.set slot (Some bi))
      ~build:(fun () ->
        build_index st ~lock:ctx.lock ~epoch:ctx.epoch ~cols:!(ctx.ctx_cols) ~group:m.group
          ~data:!(ctx.ctx_units))

(* One evaluator over a (possibly shared) context.  Every member of a
   family may run on its own domain: the context's once-cells make each
   shared structure come into existence exactly once, whichever lane
   probes it first. *)
let indexed_member (ctx : indexed_ctx) ~(name : string) ~(stats : eval_stats)
    ~(begin_tick : ?delta:Delta.t -> ?cols:Colstore.t -> Tuple.t array -> unit) : t =
  let schema = ctx.ctx_schema in
  let aggregates = ctx.ctx_aggregates in
  let units = ctx.ctx_units in
  let tels = agg_tels aggregates in
  let eval_agg ~agg_id ~rows ~rands =
    (* The injection point of the indexed machinery: absent from the naive
       evaluator, so a [Degrade] retry chain always terminates clean. *)
    Fault_inject.hit "eval.member";
    let agg = aggregates.(agg_id) in
    let tel = tels.(agg_id) in
    Telemetry.Counter.incr tel.tel_batches;
    match ctx.strategies.(agg_id) with
    | Agg_plan.Uniform -> eval_uniform stats ~tel ~agg ~units:!units ~rows ~rands
    | Agg_plan.Naive_only _ -> naive_eval_agg stats ~tel ~units:!units ~agg ~rows ~rands
    | Agg_plan.Indexed _ as strategy ->
      let membership = Option.get ctx.memberships.(agg_id) in
      let bi = group_index ctx stats membership in
      eval_indexed_batch stats ~tel ~strategy ~agg ~membership ~bi ~rows ~rands
  in
  (* Area-of-effect combination (Section 5.4): swap the roles of u and e so
     contributors become the data set and affected units the probers, then
     reuse the aggregate machinery per updated attribute. *)
  let apply_aoe ~pred ~updates ~contributors ~contributor_rands ~acc =
    let rec swap (e : Expr.t) : Expr.t =
      match e with
      | Expr.UAttr i -> Expr.EAttr i
      | Expr.EAttr i -> Expr.UAttr i
      | Expr.Const _ -> e
      | Expr.Binop (op, a, b) -> Expr.Binop (op, swap a, swap b)
      | Expr.Cmp (op, a, b) -> Expr.Cmp (op, swap a, swap b)
      | Expr.And (a, b) -> Expr.And (swap a, swap b)
      | Expr.Or (a, b) -> Expr.Or (swap a, swap b)
      | Expr.Not a -> Expr.Not (swap a)
      | Expr.Neg a -> Expr.Neg (swap a)
      | Expr.VecOf (a, b) -> Expr.VecOf (swap a, swap b)
      | Expr.VecX a -> Expr.VecX (swap a)
      | Expr.VecY a -> Expr.VecY (swap a)
      | Expr.Abs a -> Expr.Abs (swap a)
      | Expr.Sqrt a -> Expr.Sqrt (swap a)
      | Expr.MinOf (a, b) -> Expr.MinOf (swap a, swap b)
      | Expr.MaxOf (a, b) -> Expr.MaxOf (swap a, swap b)
      | Expr.Random a -> Expr.Random (swap a)
    in
    let swapped_pred = Predicate.of_conjuncts (List.map swap (Predicate.conjuncts pred)) in
    let naive_fallback () =
      naive_apply_aoe stats ~schema ~units:!units ~pred ~updates ~contributors
        ~contributor_rands ~acc
    in
    (* Indexable only when no update or conjunct needs the affected unit's
       random stream or mixes roles the planner cannot express. *)
    let updates_indexable =
      List.for_all (fun (_, e) -> (not (Expr.mentions_e e)) && not (Expr.mentions_random e)) updates
    in
    if (not updates_indexable) || List.exists Expr.mentions_random (Predicate.conjuncts pred) then
      naive_fallback ()
    else begin
      (* One synthetic aggregate per updated attribute. *)
      let synthetic (attr, expr) =
        let kind =
          match Schema.tag_at schema attr with
          | Schema.Sum -> Some (Aggregate.Sum (swap expr))
          | Schema.Max -> Some (Aggregate.Max_agg (swap expr))
          | Schema.Min -> Some (Aggregate.Min_agg (swap expr))
          (* priority-set contributions are vec-valued; no index yet *)
          | Schema.Pmax | Schema.Const -> None
        in
        Option.map
          (fun kind ->
            (* Count alongside, to distinguish "no contributors" from a
               legitimate zero sum. *)
            Aggregate.make ~name:"__aoe"
              ~kinds:[ kind; Aggregate.Count ]
              ~where_:swapped_pred
              ~default:(Expr.VecOf (Expr.Const (Value.Float nan), Expr.Const (Value.Float 0.)))
              ())
          kind
      in
      let plans =
        List.map
          (fun (attr, expr) ->
            match synthetic (attr, expr) with
            | None -> None
            | Some agg -> begin
              match Agg_plan.analyze schema agg with
              | Agg_plan.Naive_only _ -> None
              | strategy -> Some (attr, agg, strategy)
            end)
          updates
      in
      if List.exists Option.is_none plans then naive_fallback ()
      else begin
        let probers = !units in
        let prands = Array.map (fun _ -> dummy_rand) probers in
        List.iter
          (fun plan ->
            let attr, agg, strategy = Option.get plan in
            let contribute vals =
              Array.iteri
                (fun i v ->
                  let vec = Value.to_vec v in
                  if vec.Sgl_util.Vec2.y > 0. then
                    Combine.Acc.add_attr acc ~base:probers.(i)
                      ~key:(Tuple.key schema probers.(i))
                      attr (Value.Float vec.Sgl_util.Vec2.x))
                vals
            in
            match strategy with
            | Agg_plan.Naive_only _ -> assert false
            | Agg_plan.Uniform ->
              contribute
                (eval_uniform stats ~tel:aoe_tel ~agg ~units:contributors ~rows:probers
                   ~rands:prands)
            | Agg_plan.Indexed { access; stats_exprs; _ } ->
              (* a fresh single-instance group over the contributor set;
                 the index is call-local, so it gets a lock of its own *)
              let g = new_group ~group_id:(-1) (group_signature access) in
              let membership = join_group g stats_exprs in
              let bi =
                build_index stats ~lock:(Mutex.create ()) ~epoch:0 ~cols:None ~group:g
                  ~data:contributors
              in
              contribute
                (eval_indexed_batch stats ~tel:aoe_tel ~strategy ~agg ~membership ~bi
                   ~rows:probers ~rands:prands))
          plans
      end
    end
  in
  { name; begin_tick; eval_agg; apply_aoe; stats }

let indexed ?(share = true) ~(schema : Schema.t) ~(aggregates : Aggregate.t array) () : t =
  let ctx = make_indexed_ctx ~share ~schema ~aggregates () in
  let stats = fresh_stats () in
  indexed_member ctx ~name:"indexed" ~stats
    ~begin_tick:(fun ?delta ?cols e -> open_tick ctx stats ?delta ?cols e)

(* ------------------------------------------------------------------ *)
(* Families: one context, one member per lane *)

type family = {
  members : t array;
  prepare : ?delta:Delta.t -> ?cols:Colstore.t -> Tuple.t array -> unit;
}

let indexed_family ?(share = true) ~(schema : Schema.t) ~(aggregates : Aggregate.t array)
    ~(chunks : int) () : family =
  let ctx = make_indexed_ctx ~share ~schema ~aggregates () in
  let members =
    Array.init (max 1 chunks) (fun i ->
        indexed_member ctx
          ~name:(Printf.sprintf "indexed#%d" i)
          ~stats:(fresh_stats ())
          ~begin_tick:(fun ?delta:_ ?cols:_ _ -> ()))
  in
  let prepare ?delta ?cols units = open_tick ctx members.(0).stats ?delta ?cols units in
  { members; prepare }

(* ------------------------------------------------------------------ *)
(* EXPLAIN: the compiled per-instance plan annotated with live counters.

   The group assignment in [make_indexed_ctx] is deterministic, so
   rebuilding a context here recovers exactly the instance -> group
   mapping the running evaluator used, and registration-by-name makes
   [agg_tel]/[new_group] return the very handles the evaluator
   has been bumping.  The report therefore shows the *chosen* access path
   next to how it actually answered: prefix-aggregate lookups vs.
   enumerations vs. sweeps vs. uniform sharing, rows touched, and what
   each group built and what the cross-tick cache reused. *)

let pp_attr_list ppf attrs = Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ",") int) attrs

let explain ?(share = true) ~(schema : Schema.t) ~(aggregates : Aggregate.t array) () : string =
  let ctx = make_indexed_ctx ~share ~schema ~aggregates () in
  let tels = agg_tels aggregates in
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Fmt.pf ppf "EXPLAIN: %d aggregate instance(s), index sharing %s@."
    (Array.length aggregates)
    (if share then "on" else "off");
  let v = Telemetry.Counter.value in
  let pp_live tel =
    Fmt.pf ppf
      "        live: batches=%d probes=%d rows_scanned=%d prefix=%d enum=%d sweep=%d uniform=%d@."
      (v tel.tel_batches) (v tel.tel_probes) (v tel.tel_rows) (v tel.tel_prefix)
      (v tel.tel_enum) (v tel.tel_sweep) (v tel.tel_uniform)
  in
  Array.iteri
    (fun i (agg : Aggregate.t) ->
      (match ctx.strategies.(i) with
      | Agg_plan.Uniform ->
        Fmt.pf ppf "  [%d] %s: uniform (answer once per batch, share across probers)@." i
          agg.Aggregate.name
      | Agg_plan.Naive_only reason ->
        Fmt.pf ppf "  [%d] %s: naive scan (%s)@." i agg.Aggregate.name reason
      | Agg_plan.Indexed { components; sweep; enumerate; _ } ->
        let group =
          match ctx.memberships.(i) with
          | Some m -> m.group
          | None -> assert false
        in
        let comp_name = function
          | Agg_plan.C_divisible _ ->
            if enumerate then "divisible(enumerate)" else "divisible(prefix)"
          | Agg_plan.C_extremal _ -> (
            match sweep with
            | Some _ -> "extremal(sweep)"
            | None -> "extremal(enumerate)")
          | Agg_plan.C_nearest _ -> "nearest(kd)"
        in
        Fmt.pf ppf "  [%d] %s: indexed via group %d [%a], cat=%a box=%a@." i agg.Aggregate.name
          group.group_id
          Fmt.(list ~sep:(any " + ") string)
          (List.map comp_name components) pp_attr_list group.cat_attrs pp_attr_list
          group.box_attrs);
      pp_live tels.(i))
    aggregates;
  Fmt.pf ppf "  [aoe] area effects: a call-local index over each effect's contributors@.";
  pp_live aoe_tel;
  let groups =
    let seen : (int, group) Hashtbl.t = Hashtbl.create 8 in
    Array.iter
      (fun (m_opt : membership option) ->
        match m_opt with
        | Some m when not (Hashtbl.mem seen m.group.group_id) ->
          Hashtbl.add seen m.group.group_id m.group
        | _ -> ())
      ctx.memberships;
    List.sort
      (fun a b -> compare a.group_id b.group_id)
      (Hashtbl.fold (fun _ g acc -> g :: acc) seen [])
  in
  if groups <> [] then begin
    Fmt.pf ppf "  index groups:@.";
    List.iter
      (fun g ->
        let members =
          Array.fold_left
            (fun n (m_opt : membership option) ->
              match m_opt with
              | Some m when m.group.group_id = g.group_id -> n + 1
              | _ -> n)
            0 ctx.memberships
        in
        Fmt.pf ppf
          "    group %d: cat=%a box=%a members=%d stat_columns=%d builds=%d cache_reuses=%d@."
          g.group_id pp_attr_list g.cat_attrs pp_attr_list g.box_attrs members g.n_stats
          (v g.g_builds) (v g.g_reuses))
      groups
  end;
  (* The totals sum the breakdown: one histogram sample per build (the
     call-local AoE groups included), the shared groups' reuses (AoE
     indexes never outlive their call), every instance's probes. *)
  let b = Telemetry.Histogram.snapshot tel_build_hist in
  Fmt.pf ppf "  totals: index_builds=%d (%.3fs) index_reuses=%d index_probes=%d@."
    b.Telemetry.count b.Telemetry.total
    (List.fold_left (fun n g -> n + v g.g_reuses) 0 groups)
    (Array.fold_left (fun n tel -> n + v tel.tel_probes) (v aoe_tel.tel_probes) tels);
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let family_stats (fam : family) : eval_stats =
  let out = fresh_stats () in
  Array.iter
    (fun m ->
      out.index_builds <- out.index_builds + m.stats.index_builds;
      out.index_probes <- out.index_probes + m.stats.index_probes;
      out.naive_scans <- out.naive_scans + m.stats.naive_scans;
      out.uniform_hits <- out.uniform_hits + m.stats.uniform_hits;
      out.index_reuses <- out.index_reuses + m.stats.index_reuses;
      out.build_seconds <- out.build_seconds +. m.stats.build_seconds)
    fam.members;
  out
