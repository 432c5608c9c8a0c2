(** Monotonic timers that accumulate across start/stop cycles. *)

type t

val create : unit -> t

(** Raises [Invalid_argument] if the timer is already running. *)
val start : t -> unit

(** Raises [Invalid_argument] if the timer is not running. *)
val stop : t -> unit

(** Total accumulated seconds, including the in-flight interval if running. *)
val elapsed : t -> float

val reset : t -> unit

(** [timed f] is [(f (), seconds_taken)]. *)
val timed : (unit -> 'a) -> 'a * float

(** Current monotonic time in seconds.  Only differences are meaningful:
    the epoch is arbitrary (typically boot time), but the value never jumps
    when the wall clock is adjusted. *)
val now : unit -> float

(** Monotonic nanoseconds; allocation-free.  The raw clock behind {!now},
    for callers (the telemetry span tracer) that cannot afford float
    conversion on the hot path. *)
val now_ns : unit -> int64
