(** Categorical partitioning with one sub-index per partition: the
    hash-table levels of the paper's layered indexes.  Every partition's
    sub-index is made in {!create}; the lookups below never write, so an
    index is safe to probe from several domains at once. *)

type 'a t

(** [create ~keys ~ids ~builder] partitions [ids] by their key vector and
    calls [builder] once per partition with its member ids, in [ids]
    order. *)
val create : keys:(int -> int list) -> ids:int array -> builder:(int array -> 'a) -> 'a t

val partition_keys : 'a t -> int list list
val members : 'a t -> int list -> int array

(** Sub-index of a partition; [None] if the partition is empty. *)
val find : 'a t -> int list -> 'a option

(** Sub-indexes of every partition accepted by the predicate, in
    {!partition_keys} order. *)
val find_matching : 'a t -> accept:(int list -> bool) -> 'a list

val partition_count : 'a t -> int
