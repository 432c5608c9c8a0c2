(* A fixed-size domain pool with static task assignment.

   Each worker owns one mailbox slot (mutex + condition + state machine):

     Idle --submit--> Running --worker--> Done --await--> Idle
                                                 \--shutdown--> Quit

   The caller hands every worker its closure, runs its own share of the
   work, then waits for each worker's Done.  All communication is through
   the slot's mutex, so the publication of task results to the caller is
   properly synchronized (no data races in the OCaml 5 memory model).
   There is deliberately no work queue and no stealing: determinism of the
   work assignment is part of the contract. *)

type failure = exn * Printexc.raw_backtrace

type state =
  | Idle
  | Running
  | Done of failure option
  | Quit

type slot = {
  lock : Mutex.t;
  cond : Condition.t;
  mutable job : (unit -> unit) option;
  mutable state : state;
}

type t = {
  lanes : int;
  slots : slot array; (* lanes - 1 *)
  domains : unit Domain.t array;
  mutable live : bool;
  mutable suppressed : int; (* extra lane failures hidden by the last re-raise *)
}

let max_lanes = 64

let worker_loop (s : slot) : unit =
  let rec loop () =
    Mutex.lock s.lock;
    let rec wait () =
      match s.state with
      | Running | Quit -> ()
      | Idle | Done _ ->
        Condition.wait s.cond s.lock;
        wait ()
    in
    wait ();
    match s.state with
    | Quit -> Mutex.unlock s.lock
    | Running ->
      let job = Option.get s.job in
      s.job <- None;
      Mutex.unlock s.lock;
      let outcome =
        try
          job ();
          None
        with e -> Some (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock s.lock;
      s.state <- Done outcome;
      Condition.broadcast s.cond;
      Mutex.unlock s.lock;
      loop ()
    | Idle | Done _ -> assert false
  in
  loop ()

let create ~domains =
  let lanes = max 1 (min domains max_lanes) in
  let slots =
    Array.init (lanes - 1) (fun _ ->
        { lock = Mutex.create (); cond = Condition.create (); job = None; state = Idle })
  in
  let domains = Array.map (fun s -> Domain.spawn (fun () -> worker_loop s)) slots in
  { lanes; slots; domains; live = true; suppressed = 0 }

let size t = t.lanes
let suppressed_failures t = t.suppressed

let submit (s : slot) (f : unit -> unit) : unit =
  Mutex.lock s.lock;
  (match s.state with
  | Idle -> ()
  | Running | Done _ | Quit ->
    Mutex.unlock s.lock;
    invalid_arg "Domain_pool: lane is busy or shut down");
  s.job <- Some f;
  s.state <- Running;
  Condition.broadcast s.cond;
  Mutex.unlock s.lock

let await (s : slot) : failure option =
  Mutex.lock s.lock;
  let rec wait () =
    match s.state with
    | Done outcome ->
      s.state <- Idle;
      outcome
    | Running -> Condition.wait s.cond s.lock; wait ()
    | Idle | Quit -> assert false
  in
  let outcome = wait () in
  Mutex.unlock s.lock;
  outcome

(* Telemetry: the number of fan-outs, and the per-lane busy-time
   distribution (lane imbalance shows up as a wide histogram; its total is
   the summed busy time). *)
let tel_fanouts = Telemetry.counter "pool.fanouts"
let tel_busy_hist = Telemetry.histogram "pool.lane_busy_s"

let parallel_map (t : t) (f : 'a -> 'b) (items : 'a array) : 'b array =
  if not t.live then invalid_arg "Domain_pool: pool is shut down";
  t.suppressed <- 0;
  let n = Array.length items in
  if n = 0 then [||]
  else begin
    let lanes = min t.lanes n in
    let results : 'b option array = Array.make n None in
    Telemetry.Counter.incr tel_fanouts;
    (* lane [l] owns items l, l + lanes, l + 2*lanes, ... *)
    let work lane () =
      let body () =
        let t0 = if Telemetry.enabled () then Timer.now_ns () else 0L in
        Fault_inject.hit "pool.lane";
        let finish () =
          if Telemetry.enabled () then
            Telemetry.Histogram.observe tel_busy_hist
              (Int64.to_float (Int64.sub (Timer.now_ns ()) t0) /. 1e9)
        in
        match
          let i = ref lane in
          while !i < n do
            results.(!i) <- Some (f items.(!i));
            i := !i + lanes
          done
        with
        | () -> finish ()
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          finish ();
          Printexc.raise_with_backtrace e bt
      in
      (* Name construction only when tracing, so the disabled path stays
         allocation-free. *)
      if Telemetry.Span.enabled () then
        Telemetry.Span.with_ ~cat:"pool" (Printf.sprintf "lane:%d" lane) body
      else body ()
    in
    for l = 1 to lanes - 1 do
      submit t.slots.(l - 1) (work l)
    done;
    let caller_failure =
      try
        work 0 ();
        None
      with e -> Some (e, Printexc.get_raw_backtrace ())
    in
    (* Every lane is always awaited, so the pool stays consistent even when
       several fail.  The first failure in lane order is re-raised with its
       original backtrace; the rest are only counted, and the count stays
       readable through [suppressed_failures] for fault reporting. *)
    let failures = ref (Option.to_list caller_failure) in
    for l = 1 to lanes - 1 do
      match await t.slots.(l - 1) with
      | None -> ()
      | Some failure -> failures := failure :: !failures
    done;
    match List.rev !failures with
    | [] -> Array.map Option.get results
    | (e, bt) :: rest ->
      t.suppressed <- List.length rest;
      Printexc.raise_with_backtrace e bt
  end

let chunk_ranges ~n ~chunks =
  let chunks = max 1 chunks in
  Array.init chunks (fun c -> (c * n / chunks, (c + 1) * n / chunks))

let shutdown (t : t) : unit =
  if t.live then begin
    t.live <- false;
    Array.iter
      (fun s ->
        Mutex.lock s.lock;
        (* Wait out an in-flight job; discard a Done left by an aborted
           [parallel_map]. *)
        let rec drain () =
          match s.state with
          | Running -> Condition.wait s.cond s.lock; drain ()
          | Done _ -> s.state <- Idle; drain ()
          | Idle | Quit -> ()
        in
        drain ();
        s.state <- Quit;
        Condition.broadcast s.cond;
        Mutex.unlock s.lock)
      t.slots;
    Array.iter Domain.join t.domains
  end

(* ------------------------------------------------------------------ *)
(* The shared-pool registry *)

let registry : (int, t) Hashtbl.t = Hashtbl.create 4
let registry_lock = Mutex.create ()
let at_exit_installed = ref false

let shared ~domains =
  let lanes = max 1 (min domains max_lanes) in
  Mutex.lock registry_lock;
  let pool =
    match Hashtbl.find_opt registry lanes with
    | Some p -> p
    | None ->
      let p = create ~domains:lanes in
      Hashtbl.add registry lanes p;
      if not !at_exit_installed then begin
        at_exit_installed := true;
        at_exit (fun () ->
            Mutex.lock registry_lock;
            let pools = Hashtbl.fold (fun _ p acc -> p :: acc) registry [] in
            Hashtbl.reset registry;
            Mutex.unlock registry_lock;
            List.iter shutdown pools)
      end;
      p
  in
  Mutex.unlock registry_lock;
  pool
