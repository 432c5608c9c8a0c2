(* Telemetry: registry semantics, span tracer, and the differential
   guarantee the whole subsystem rests on — unit states are bit-identical
   with telemetry off, with metrics on, with span tracing on, and under
   EXPLAIN.  Observation never feeds back into the simulation. *)

open Sgl_util
open Sgl_relalg
open Sgl_engine
open Sgl_battle

(* ------------------------------------------------------------------ *)
(* Registry

   The registry is process-wide, so these tests use names of their own
   and put the enabled flag back as they found it. *)

let with_enabled (on : bool) (f : unit -> unit) : unit =
  let was = Telemetry.enabled () in
  Telemetry.set_enabled on;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled was) f

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let registry_counter_gating () =
  Alcotest.(check bool) "disabled by default" false (Telemetry.enabled ());
  let c = Telemetry.counter "test.gating" in
  let v0 = Telemetry.Counter.value c in
  with_enabled false (fun () ->
      Telemetry.Counter.incr c;
      Telemetry.Counter.add c 10;
      Alcotest.(check int) "gated while disabled" v0 (Telemetry.Counter.value c));
  with_enabled true (fun () ->
      Telemetry.Counter.incr c;
      Telemetry.Counter.add c 10;
      Alcotest.(check int) "counts while enabled" (v0 + 11) (Telemetry.Counter.value c));
  Alcotest.(check bool) "flag restored" false (Telemetry.enabled ());
  Alcotest.(check string) "name" "test.gating" (Telemetry.Counter.name c)

let registry_idempotent_registration () =
  with_enabled true @@ fun () ->
  let a = Telemetry.counter "test.same" in
  let b = Telemetry.counter "test.same" in
  let v0 = Telemetry.Counter.value b in
  Telemetry.Counter.add a 3;
  (* same handle: EXPLAIN recovers live counters by re-registering names *)
  Alcotest.(check int) "one underlying cell" (v0 + 3) (Telemetry.Counter.value b);
  let h1 = Telemetry.histogram "test.same_h" in
  let h2 = Telemetry.histogram "test.same_h" in
  let n0 = (Telemetry.Histogram.snapshot h2).Telemetry.count in
  Telemetry.Histogram.observe h1 2.5;
  Alcotest.(check int) "histogram interned" (n0 + 1)
    (Telemetry.Histogram.snapshot h2).Telemetry.count

let registry_reset_keeps_handles () =
  with_enabled true @@ fun () ->
  let c = Telemetry.counter "test.reset_c" in
  let h = Telemetry.histogram "test.reset_h" in
  Telemetry.Counter.add c 5;
  Telemetry.Histogram.observe h 1.0;
  Telemetry.reset ();
  Alcotest.(check int) "counter zeroed" 0 (Telemetry.Counter.value c);
  Alcotest.(check int) "histogram zeroed" 0 (Telemetry.Histogram.snapshot h).Telemetry.count;
  (* held handles keep working after reset *)
  Telemetry.Counter.incr c;
  Alcotest.(check int) "handle still live" 1 (Telemetry.Counter.value c)

let registry_histogram () =
  with_enabled true @@ fun () ->
  Telemetry.reset ();
  let h = Telemetry.histogram "test.hist" in
  List.iter (Telemetry.Histogram.observe h) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  let s = Telemetry.Histogram.snapshot h in
  Alcotest.(check int) "count" 8 s.Telemetry.count;
  Alcotest.(check (float 1e-9)) "mean" 5. s.Telemetry.mean;
  Alcotest.(check (float 1e-9)) "min" 2. s.Telemetry.min;
  Alcotest.(check (float 1e-9)) "max" 9. s.Telemetry.max;
  Alcotest.(check (float 1e-9)) "total" 40. s.Telemetry.total

let registry_listing_and_json () =
  with_enabled true @@ fun () ->
  Telemetry.reset ();
  let b = Telemetry.counter "test.list.b_second" in
  let a = Telemetry.counter "test.list.a_first" in
  Telemetry.Counter.add a 1;
  Telemetry.Counter.add b 2;
  Telemetry.Histogram.observe (Telemetry.histogram "test.list.h_one") 3.;
  Alcotest.(check (list (pair string int)))
    "counters sorted by name"
    [ ("test.list.a_first", 1); ("test.list.b_second", 2) ]
    (List.filter
       (fun (name, _) -> String.starts_with ~prefix:"test.list." name)
       (Telemetry.counters ()));
  let names = List.map fst (Telemetry.counters ()) in
  Alcotest.(check (list string)) "whole listing sorted" (List.sort String.compare names) names;
  let json = Telemetry.to_json () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Fmt.str "json mentions %s" needle) true (contains json needle))
    [ "\"counters\""; "\"histograms\""; "\"test.list.a_first\""; "\"test.list.h_one\"" ]

(* ------------------------------------------------------------------ *)
(* Spans *)

let span_disabled_is_transparent () =
  Telemetry.Span.stop ();
  let ran = ref false in
  let v = Telemetry.Span.with_ "never.recorded" (fun () -> ran := true; 42) in
  Telemetry.Span.instant "never.recorded";
  Alcotest.(check bool) "body ran" true !ran;
  Alcotest.(check int) "value through" 42 v;
  Alcotest.(check int) "nothing recorded" 0 (Telemetry.Span.count ())

let span_records_and_serializes () =
  Telemetry.Span.start ();
  let v =
    Telemetry.Span.with_ ~cat:"outer" "parent" (fun () ->
        Telemetry.Span.with_ ~cat:"inner" "child" (fun () -> ());
        Telemetry.Span.instant ~cat:"mark" "ping";
        17)
  in
  Telemetry.Span.stop ();
  Alcotest.(check int) "value through" 17 v;
  Alcotest.(check int) "three events" 3 (Telemetry.Span.count ());
  let json = Telemetry.Span.to_json () in
  Alcotest.(check bool) "bare event array" true (String.length json > 0 && json.[0] = '[');
  List.iter
    (fun needle -> Alcotest.(check bool) (Fmt.str "mentions %s" needle) true (contains json needle))
    [ "\"parent\""; "\"child\""; "\"ping\""; "\"ph\"" ];
  (* stop is sticky: further spans don't record *)
  Telemetry.Span.with_ "after.stop" (fun () -> ());
  Alcotest.(check int) "still three" 3 (Telemetry.Span.count ())

let span_survives_exceptions () =
  Telemetry.Span.start ();
  (try Telemetry.Span.with_ "boom" (fun () -> failwith "boom") with Failure _ -> ());
  Telemetry.Span.stop ();
  Alcotest.(check int) "span recorded despite raise" 1 (Telemetry.Span.count ())

(* ------------------------------------------------------------------ *)
(* Trace satellite: idempotent close, Trace_error on I/O after close *)

let trace_close_idempotent () =
  let path = Filename.temp_file "sgl_trace" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let scenario = Scenario.setup ~density:0.02 ~per_side:(Scenario.standard_mix 5) () in
      let sim = Scenario.simulation ~evaluator:Simulation.Indexed scenario in
      let tr =
        Trace.create ~path ~schema:(Simulation.schema sim) ~attrs:[ "key"; "health" ]
      in
      Trace.record tr ~tick:0 (Simulation.units sim);
      Trace.close tr;
      Trace.close tr (* second close is a no-op, not an error *);
      Alcotest.check_raises "record after close"
        (Trace.Trace_error "trace: already closed") (fun () ->
          Trace.record tr ~tick:1 (Simulation.units sim)))

(* ------------------------------------------------------------------ *)
(* The differential guarantee *)

let sorted_units (sim : Simulation.t) : Tuple.t array =
  let s = Simulation.schema sim in
  let out = Array.map Tuple.copy (Simulation.units sim) in
  Array.sort (fun a b -> compare (Tuple.key s a) (Tuple.key s b)) out;
  out

let check_states ~(msg : string) (expected : Tuple.t array) (got : Tuple.t array) =
  Alcotest.(check int) (msg ^ ": population") (Array.length expected) (Array.length got);
  Array.iteri
    (fun i e ->
      if compare e got.(i) <> 0 then
        Alcotest.failf "%s: unit %d diverged@.expected %s@.got      %s" msg i
          (Fmt.str "%a" Tuple.pp e)
          (Fmt.str "%a" Tuple.pp got.(i)))
    expected

(* Same scenario, same seed, four observability configurations; the unit
   states must agree bit for bit. *)
let telemetry_is_invisible () =
  let run ~metrics ~spans ~explain =
    Telemetry.set_enabled false;
    Telemetry.reset ();
    Telemetry.Span.stop ();
    if metrics then Telemetry.set_enabled true;
    if spans then Telemetry.Span.start ();
    let scenario = Scenario.setup ~density:0.02 ~per_side:(Scenario.standard_mix 30) () in
    let sim = Scenario.simulation ~seed:11 ~evaluator:Simulation.Indexed scenario in
    Simulation.run sim ~ticks:15;
    if explain then begin
      let prog = Scripts.compile () in
      let text =
        Sgl_qopt.Eval.explain ~schema:(Simulation.schema sim)
          ~aggregates:prog.Sgl_lang.Core_ir.aggregates ()
      in
      Alcotest.(check bool) "explain non-empty" true (String.length text > 0)
    end;
    let states = sorted_units sim in
    if spans then begin
      Alcotest.(check bool) "spans recorded" true (Telemetry.Span.count () > 0);
      Telemetry.Span.stop ()
    end;
    if metrics then begin
      let total = List.fold_left (fun acc (_, v) -> acc + v) 0 (Telemetry.counters ()) in
      Alcotest.(check bool) "metrics recorded" true (total > 0);
      Telemetry.set_enabled false
    end;
    states
  in
  let baseline = run ~metrics:false ~spans:false ~explain:false in
  check_states ~msg:"metrics vs off" baseline (run ~metrics:true ~spans:false ~explain:false);
  check_states ~msg:"spans vs off" baseline (run ~metrics:false ~spans:true ~explain:false);
  check_states ~msg:"explain vs off" baseline (run ~metrics:true ~spans:false ~explain:true)

(* EXPLAIN's totals line sums the per-group and per-instance breakdown
   and the build histogram; on a fresh registry those sums must equal the
   ledger's counts, sequential and parallel alike. *)
let explain_totals_equal_report () =
  let check evaluator =
    let name = Simulation.evaluator_name evaluator in
    Telemetry.reset ();
    with_enabled true @@ fun () ->
    let scenario = Scenario.setup ~density:0.02 ~per_side:(Scenario.standard_mix 30) () in
    let sim = Scenario.simulation ~seed:11 ~evaluator scenario in
    Simulation.run sim ~ticks:20;
    let prog = Scripts.compile () in
    let text =
      Sgl_qopt.Eval.explain ~schema:(Simulation.schema sim)
        ~aggregates:prog.Sgl_lang.Core_ir.aggregates ()
    in
    let totals =
      match
        List.find_opt
          (fun line -> contains line "totals:")
          (String.split_on_char '\n' text)
      with
      | Some line -> line
      | None -> Alcotest.failf "%s: EXPLAIN has no totals line:@.%s" name text
    in
    let builds, reuses, probes =
      Scanf.sscanf (String.trim totals)
        "totals: index_builds=%d (%fs) index_reuses=%d index_probes=%d" (fun b _ r p -> (b, r, p))
    in
    let r = Simulation.report sim in
    Alcotest.(check bool) (name ^ ": built indexes") true (r.Simulation.index_builds > 0);
    Alcotest.(check int) (name ^ ": builds") r.Simulation.index_builds builds;
    Alcotest.(check int) (name ^ ": reuses") r.Simulation.index_reuses reuses;
    Alcotest.(check int) (name ^ ": probes") r.Simulation.index_probes probes
  in
  check Simulation.Indexed;
  check (Simulation.Parallel { domains = 2 })

let suite =
  let tc = Alcotest.test_case in
  [
    ( "telemetry.registry",
      [
        tc "counter gating" `Quick registry_counter_gating;
        tc "idempotent registration" `Quick registry_idempotent_registration;
        tc "reset keeps handles" `Quick registry_reset_keeps_handles;
        tc "histogram snapshot" `Quick registry_histogram;
        tc "listing and json" `Quick registry_listing_and_json;
      ] );
    ( "telemetry.span",
      [
        tc "disabled is transparent" `Quick span_disabled_is_transparent;
        tc "records and serializes" `Quick span_records_and_serializes;
        tc "survives exceptions" `Quick span_survives_exceptions;
      ] );
    ("telemetry.trace", [ tc "close idempotent" `Quick trace_close_idempotent ]);
    ( "telemetry.differential",
      [
        tc "bit-identical on/off/spans/explain" `Slow telemetry_is_invisible;
        tc "explain totals equal report" `Quick explain_totals_equal_report;
      ] );
  ]
