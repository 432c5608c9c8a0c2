(** Readiness and anomaly flags over the flight recorder's recent window:
    tick-time p99 vs the run's own median, population collapse vs the
    observed peak, and index-reuse-rate drop vs the run's overall
    rate. *)

open Sgl_engine

type status = {
  ready : bool;  (** at least one committed tick observed *)
  healthy : bool;  (** ready and no flags raised *)
  flags : string list;
      (** subset of ["tick_time_p99_degraded"], ["population_collapse"],
          ["index_reuse_rate_drop"] *)
  tick : int;
  units : int;
  peak_units : int;
  recent_p99_s : float;
  baseline_p50_s : float;
  recent_reuse_rate : float;  (** [nan] when the window had no index activity *)
  overall_reuse_rate : float;
}

(** [judge ~recent ...] is the pure flag logic over [recent], the flight
    recorder's newest samples (oldest first): not ready when [recent] is
    empty; otherwise the recent tick-time p99 is held against
    [baseline_p50_s], the newest population against [peak_units], and the
    recent reuse rate against [overall_reuses / (overall_reuses +
    overall_builds)].  Same inputs, same status: no clock is read. *)
val judge :
  recent:Flight.sample list -> baseline_p50_s:float -> overall_reuses:int ->
  overall_builds:int -> peak_units:int -> status

(** [judge] over [flight]'s recent window and [sim]'s report. *)
val assess : sim:Simulation.t -> flight:Flight.t -> peak_units:int -> status
val to_json : status -> string
