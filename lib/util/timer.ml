(* Monotonic phase timing for the simulation engine and bench harness.

   All durations — engine phase splits, telemetry span durations, bench
   measurements — come from CLOCK_MONOTONIC (via the C stub), so they are
   immune to wall-clock adjustments.  The absolute value of [now] is
   meaningless across processes; only differences are. *)

external monotonic_ns : unit -> (int64[@unboxed])
  = "sgl_monotonic_ns" "sgl_monotonic_ns_unboxed"
[@@noalloc]

let now_ns () : int64 = monotonic_ns ()
let now () = Int64.to_float (monotonic_ns ()) /. 1e9

type t = { mutable elapsed : float; mutable started : float option }

let create () = { elapsed = 0.; started = None }

let start t =
  match t.started with
  | Some _ -> invalid_arg "Timer.start: already running"
  | None -> t.started <- Some (now ())

let stop t =
  match t.started with
  | None -> invalid_arg "Timer.stop: not running"
  | Some s ->
    t.elapsed <- t.elapsed +. (now () -. s);
    t.started <- None

let elapsed t =
  match t.started with
  | None -> t.elapsed
  | Some s -> t.elapsed +. (now () -. s)

let reset t =
  t.elapsed <- 0.;
  t.started <- None

(* [timed f] runs [f ()] and returns its result with the seconds it took. *)
let timed f =
  let t0 = now () in
  let result = f () in
  (result, now () -. t0)
