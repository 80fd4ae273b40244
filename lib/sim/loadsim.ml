open Coign_util
open Coign_netsim
open Coign_core
open Coign_apps

(* ---------------------------------------------------------------- *)
(* Arrival processes                                                 *)
(* ---------------------------------------------------------------- *)

type arrival =
  | Poisson of float
  | Bursty of { b_rate : float; b_on_ms : float; b_off_ms : float }
  | Diurnal of { d_peak : float; d_period_s : float }

let validate_arrival = function
  | Poisson r ->
      if r <= 0. then Error "poisson rate must be positive" else Ok (Poisson r)
  | Bursty { b_rate; b_on_ms; b_off_ms } ->
      if b_rate <= 0. then Error "bursty rate must be positive"
      else if b_on_ms <= 0. then Error "bursty on-window must be positive"
      else if b_off_ms < 0. then Error "bursty off-window must be non-negative"
      else Ok (Bursty { b_rate; b_on_ms; b_off_ms })
  | Diurnal { d_peak; d_period_s } ->
      if d_peak <= 0. then Error "diurnal peak rate must be positive"
      else if d_period_s <= 0. then Error "diurnal period must be positive"
      else Ok (Diurnal { d_peak; d_period_s })

let arrival_to_string = function
  | Poisson r -> Printf.sprintf "poisson:%g" r
  | Bursty { b_rate; b_on_ms; b_off_ms } ->
      Printf.sprintf "bursty:%g,%g,%g" b_rate b_on_ms b_off_ms
  | Diurnal { d_peak; d_period_s } -> Printf.sprintf "diurnal:%g,%g" d_peak d_period_s

let arrival_of_string s =
  let fail () =
    Error
      (Printf.sprintf
         "bad arrival spec %S (expected poisson:RATE, bursty:RATE,ON_MS,OFF_MS, or \
          diurnal:PEAK,PERIOD_S)"
         s)
  in
  let num x = float_of_string_opt (String.trim x) in
  match String.index_opt s ':' with
  | None -> fail ()
  | Some i -> (
      let kind = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      let parts = String.split_on_char ',' rest in
      match (kind, List.map num parts) with
      | "poisson", [ Some r ] -> validate_arrival (Poisson r)
      | "bursty", [ Some r; Some on; Some off ] ->
          validate_arrival (Bursty { b_rate = r; b_on_ms = on; b_off_ms = off })
      | "diurnal", [ Some p; Some per ] ->
          validate_arrival (Diurnal { d_peak = p; d_period_s = per })
      | _ -> fail ())

(* Per-session randomness comes from an independent splitmix stream of
   the master seed, so the draws are a pure function of (seed, index):
   batches can be filled on any domain in any order and still agree
   with a sequential fill bit for bit. Each session draws a unit-mean
   exponential (its share of inter-arrival spacing) and a scenario
   pick, in that fixed order. *)
let batch = 16_384

let gen_arrivals ?pool ~seed ~sessions ~classes arrival =
  if sessions <= 0 then invalid_arg "Loadsim.gen_arrivals: sessions must be positive";
  if classes <= 0 then invalid_arg "Loadsim.gen_arrivals: classes must be positive";
  (match validate_arrival arrival with
  | Ok _ -> ()
  | Error e -> invalid_arg ("Loadsim.gen_arrivals: " ^ e));
  (* [arrivals] holds each session's spacing draw until the prefix pass
     below turns it into a timestamp in place. *)
  let arrivals = Array.make sessions 0. in
  let class_of = Array.make sessions 0 in
  let chunks =
    Array.init
      ((sessions + batch - 1) / batch)
      (fun i -> (i * batch, min batch (sessions - (i * batch))))
  in
  (* Each chunk writes only its own slice of the two arrays, so chunks
     may run on any domain in any order. *)
  let fill (start, len) =
    for s = start to start + len - 1 do
      let g = Prng.create (Prng.stream seed s) in
      arrivals.(s) <- Prng.exponential g ~mean:1.;
      class_of.(s) <- Prng.int g classes
    done
  in
  (match pool with
  | None -> Array.iter fill chunks
  | Some pool -> ignore (Parallel.map pool ~f:fill chunks : unit array));
  (* The exponential draws become timestamps in one sequential prefix
     pass — each process is a monotone transform of the accumulated
     spacing, so timestamps are nondecreasing by construction. Slot [s]
     is read before it is overwritten. *)
  (match arrival with
  | Poisson rate ->
      let t = ref 0. in
      for s = 0 to sessions - 1 do
        t := !t +. (arrivals.(s) *. 1e6 /. rate);
        arrivals.(s) <- !t
      done
  | Bursty { b_rate; b_on_ms; b_off_ms } ->
      (* Poisson on a virtual always-on axis, then mapped through the
         on/off windows: time spent in off-windows is skipped, which
         compresses the same arrival mass into the on-windows. *)
      let on_us = b_on_ms *. 1e3 and off_us = b_off_ms *. 1e3 in
      let v = ref 0. in
      for s = 0 to sessions - 1 do
        v := !v +. (arrivals.(s) *. 1e6 /. b_rate);
        let k = Float.of_int (int_of_float (!v /. on_us)) in
        arrivals.(s) <- (k *. (on_us +. off_us)) +. (!v -. (k *. on_us))
      done
  | Diurnal { d_peak; d_period_s } ->
      (* Thinning-free approximation: step the clock by the exponential
         draw scaled by the rate at the previous arrival. The rate
         curve is a raised cosine with a 5% floor so it never stalls. *)
      let period_us = d_period_s *. 1e6 in
      let rate t =
        d_peak
        *. (0.05
           +. (0.95 *. 0.5 *. (1. -. cos (2. *. Float.pi *. (t /. period_us)))))
      in
      let t = ref 0. in
      for s = 0 to sessions - 1 do
        t := !t +. (arrivals.(s) *. 1e6 /. rate !t);
        arrivals.(s) <- !t
      done);
  (arrivals, class_of)

(* ---------------------------------------------------------------- *)
(* Session classes: a scenario compiled to per-op service demands     *)
(* ---------------------------------------------------------------- *)

type session_class = {
  cl_scenario : string;
  cl_host_svc : float array;
  cl_link_svc : float array;
  cl_comm_us : float;
}

(* Mirror of Replay.replay's fault-free walk, reduced to the sequence
   of (request, reply) byte pairs it would charge — same machine
   tracking, same instantiation-forwarding sizes, same skip rules — so
   that summing the unloaded per-op costs in trace order reproduces
   [re_comm_us] bit for bit. One event at a time, so a recording can
   feed it directly instead of first building the whole trace. *)
type op_compiler = {
  oc_placement : int -> Constraints.location;
  oc_machines : (int, Constraints.location) Hashtbl.t;
  mutable oc_ops : (int * int) list;  (* newest first *)
}

let op_compiler ~placement =
  let machines = Hashtbl.create 256 in
  Hashtbl.replace machines Coign_com.Runtime.main_instance Constraints.Client;
  { oc_placement = placement; oc_machines = machines; oc_ops = [] }

let compile_event st event =
  let machine_of inst =
    Option.value ~default:Constraints.Client (Hashtbl.find_opt st.oc_machines inst)
  in
  match event with
  | Event.Component_instantiated { inst; classification; creator; _ } ->
      let creator_machine = machine_of creator in
      let machine = st.oc_placement classification in
      let machine = if classification < 0 then creator_machine else machine in
      if machine <> creator_machine then
        st.oc_ops <-
          ( Coign_idl.Marshal_size.scalar_overhead + (2 * 16),
            Coign_idl.Marshal_size.scalar_overhead + Coign_idl.Marshal_size.objref_size )
          :: st.oc_ops;
      Hashtbl.replace st.oc_machines inst machine
  | Event.Interface_call { caller; callee; iface; remotable; request_bytes; reply_bytes; _ } ->
      if String.equal iface "ICoCreateInstance" then ()
      else if machine_of caller <> machine_of callee then
        if remotable then st.oc_ops <- (request_bytes, reply_bytes) :: st.oc_ops
        else (* cross-cut non-remotable call: Replay records a
                violation and charges nothing; so do we. *)
          ()
  | Event.Component_destroyed _ | Event.Interface_instantiated _
  | Event.Interface_destroyed _ | Event.Call_retried _ | Event.Instantiation_degraded _
  | Event.Breaker_opened _ | Event.Breaker_closed _ | Event.Failover _ | Event.Failback _
  | Event.Instance_migrated _ | Event.Drift_detected _ | Event.Repartitioned _
  | Event.Replica_promoted _ | Event.Shard_split _ | Event.Pool_resized _ ->
      ()

let finish_ops st = List.rev st.oc_ops

let ops_of_events ~placement events =
  let st = op_compiler ~placement in
  List.iter (compile_event st) events;
  finish_ops st

let ops_of_scenario ~registry ~classifier ~placement run =
  let st = op_compiler ~placement in
  Replay.stream_scenario ~registry ~classifier
    ~logger:{ Logger.logger_name = "loadsim"; log = compile_event st }
    run;
  finish_ops st

let class_of_ops ~network ~scenario ops =
  let n = List.length ops in
  let host_svc = Array.make n 0. and link_svc = Array.make n 0. in
  let comm = ref 0. in
  List.iteri
    (fun i (request, reply) ->
      (* Both messages of a synchronous call occupy the shared server
         CPU for their protocol processing, then the shared link for
         propagation and transmission. host + link = the unloaded
         round-trip Replay charges. *)
      host_svc.(i) <- Network.host_us network +. Network.host_us network;
      link_svc.(i) <-
        Network.wire_us network ~bytes:request +. Network.wire_us network ~bytes:reply;
      comm :=
        !comm
        +. (Network.message_us network ~bytes:request +. Network.message_us network ~bytes:reply))
    ops;
  { cl_scenario = scenario; cl_host_svc = host_svc; cl_link_svc = link_svc; cl_comm_us = !comm }

(* ---------------------------------------------------------------- *)
(* The event loop                                                    *)
(* ---------------------------------------------------------------- *)

type op_trace = {
  ot_session : int;
  ot_op : int;
  ot_ready_us : float;
  ot_host_start_us : float;
  ot_host_finish_us : float;
  ot_link_start_us : float;
  ot_finish_us : float;
}

type sim_totals = {
  st_latency_us : float array;
  st_host_busy_us : float;
  st_link_busy_us : float;
  st_last_finish_us : float;
  st_ops : int;
}

(* No event heap: host work arrives from exactly two nondecreasing
   streams — the sorted new-session arrivals, and the FIFO ring of
   sessions whose previous op just left the link. Both servers are
   single FIFO queues, so start and finish times are nondecreasing in
   processing order; in particular link finishes are nondecreasing,
   which keeps the pending ring sorted without ever sorting it. Ties
   between the streams go to the new arrival (any fixed rule preserves
   determinism; this one is documented so the hand trace can rely on
   it). The whole simulation is O(total ops) with O(sessions) flat
   storage. *)
let simulate ?sink ~classes ~arrivals ~class_of () =
  let n = Array.length arrivals in
  if Array.length class_of <> n then invalid_arg "Loadsim.simulate: array length mismatch";
  let lat = Array.make n 0. in
  let opix = Array.make n 0 in
  let cap = n + 1 in
  let ring_s = Array.make cap 0 and ring_t = Array.make cap 0. in
  let head = ref 0 and tail = ref 0 in
  let host_free = ref 0. and link_free = ref 0. in
  let host_busy = ref 0. and link_busy = ref 0. in
  let last_finish = ref 0. and ops_done = ref 0 in
  let finish_session s t =
    lat.(s) <- t -. arrivals.(s);
    if t > !last_finish then last_finish := t
  in
  let process s t =
    let c = classes.(class_of.(s)) in
    let j = opix.(s) in
    let hs = if t > !host_free then t else !host_free in
    let hf = hs +. c.cl_host_svc.(j) in
    host_free := hf;
    host_busy := !host_busy +. c.cl_host_svc.(j);
    let ls = if hf > !link_free then hf else !link_free in
    let lf = ls +. c.cl_link_svc.(j) in
    link_free := lf;
    link_busy := !link_busy +. c.cl_link_svc.(j);
    incr ops_done;
    (match sink with
    | Some f ->
        f
          {
            ot_session = s;
            ot_op = j;
            ot_ready_us = t;
            ot_host_start_us = hs;
            ot_host_finish_us = hf;
            ot_link_start_us = ls;
            ot_finish_us = lf;
          }
    | None -> ());
    opix.(s) <- j + 1;
    if opix.(s) < Array.length c.cl_host_svc then begin
      ring_s.(!tail) <- s;
      ring_t.(!tail) <- lf;
      tail := if !tail + 1 = cap then 0 else !tail + 1
    end
    else finish_session s lf
  in
  let next_new = ref 0 in
  while !next_new < n || !head <> !tail do
    if
      !next_new < n
      && (!head = !tail || arrivals.(!next_new) <= ring_t.(!head))
    then begin
      let s = !next_new in
      incr next_new;
      if Array.length classes.(class_of.(s)).cl_host_svc = 0 then
        (* A fully co-located mix: the session never touches the
           network and completes the instant it arrives. *)
        finish_session s arrivals.(s)
      else process s arrivals.(s)
    end
    else begin
      let s = ring_s.(!head) and t = ring_t.(!head) in
      head := if !head + 1 = cap then 0 else !head + 1;
      process s t
    end
  done;
  {
    st_latency_us = lat;
    st_host_busy_us = !host_busy;
    st_link_busy_us = !link_busy;
    st_last_finish_us = !last_finish;
    st_ops = !ops_done;
  }

(* ---------------------------------------------------------------- *)
(* The full run                                                      *)
(* ---------------------------------------------------------------- *)

type class_stat = {
  cs_scenario : string;
  cs_sessions : int;
  cs_ops : int;
  cs_comm_us : float;
}

type result = {
  r_app : string;
  r_network : string;
  r_arrival : arrival;
  r_seed : int64;
  r_sessions : int;
  r_queueing : bool;
  r_deadline_us : float option;
  r_classes : class_stat list;
  r_total_ops : int;
  r_p50_us : float;
  r_p95_us : float;
  r_p99_us : float;
  r_mean_us : float;
  r_max_us : float;
  r_throughput_per_s : float;
  r_availability : float;
  r_duration_us : float;
  r_host_util : float;
  r_link_util : float;
}

let compile_classes ~image ~network ~app scenarios =
  List.map
    (fun (sc : App.scenario) ->
      (* A fresh decode per scenario: profiling-RTE recordings advance
         classifier state, so sharing one decoded classifier across
         scenarios would let one recording perturb the next. *)
      match Adps.load_distribution image with
      | None ->
          invalid_arg
            "Loadsim.run: image holds no distribution (profile and analyze it first)"
      | Some (classifier, dist) ->
          let ops =
            ops_of_scenario ~registry:app.App.app_registry ~classifier
              ~placement:(Analysis.location_of dist) sc.App.sc_run
          in
          class_of_ops ~network ~scenario:sc.App.sc_id ops)
    scenarios

let run ?pool ?metrics ?(queueing = true) ?deadline_us ?scenarios ~sessions ~arrival ~seed
    ~image ~network () =
  if sessions <= 0 then invalid_arg "Loadsim.run: sessions must be positive";
  (match deadline_us with
  | Some d when d <= 0. -> invalid_arg "Loadsim.run: deadline must be positive"
  | _ -> ());
  let app =
    try Suite.find_app image.Coign_image.Binary_image.img_name
    with Not_found ->
      invalid_arg
        ("Loadsim.run: unknown application " ^ image.Coign_image.Binary_image.img_name)
  in
  let mix =
    match scenarios with
    | None -> App.non_bigone app
    | Some [] -> invalid_arg "Loadsim.run: empty scenario mix"
    | Some ids ->
        List.map
          (fun id ->
            try App.scenario app id
            with Not_found -> invalid_arg ("Loadsim.run: unknown scenario " ^ id))
          ids
  in
  let classes = Array.of_list (compile_classes ~image ~network ~app mix) in
  let arrivals, class_of =
    gen_arrivals ?pool ~seed ~sessions ~classes:(Array.length classes) arrival
  in
  let totals =
    if queueing then simulate ~classes ~arrivals ~class_of ()
    else begin
      (* Queueing off: every server is infinitely wide, so a session's
         latency is exactly its class's unloaded Replay estimate. *)
      let lat = Array.make sessions 0. in
      let host = ref 0. and link = ref 0. in
      let last = ref 0. and ops = ref 0 in
      for s = 0 to sessions - 1 do
        let c = classes.(class_of.(s)) in
        lat.(s) <- c.cl_comm_us;
        let f = arrivals.(s) +. c.cl_comm_us in
        if f > !last then last := f;
        ops := !ops + Array.length c.cl_host_svc;
        host := !host +. Array.fold_left ( +. ) 0. c.cl_host_svc;
        link := !link +. Array.fold_left ( +. ) 0. c.cl_link_svc
      done;
      {
        st_latency_us = lat;
        st_host_busy_us = !host;
        st_link_busy_us = !link;
        st_last_finish_us = !last;
        st_ops = !ops;
      }
    end
  in
  let lat = totals.st_latency_us in
  (* The mean and the deadline count read [lat] in session order; the
     percentile selection below then permutes it in place. *)
  let mean = Stats.mean lat in
  let duration = totals.st_last_finish_us -. arrivals.(0) in
  let throughput =
    if duration > 0. then float_of_int sessions /. (duration /. 1e6) else 0.
  in
  let availability =
    match deadline_us with
    | None -> 1.
    | Some d ->
        let ok = ref 0 in
        Array.iter (fun l -> if l <= d then incr ok) lat;
        float_of_int !ok /. float_of_int sessions
  in
  (* Selecting p100 also leaves the maximum at [lat.(sessions - 1)]. *)
  let q = Stats.select_percentiles lat [| 50.; 95.; 99.; 100. |] in
  let per_class_sessions = Array.make (Array.length classes) 0 in
  Array.iter (fun c -> per_class_sessions.(c) <- per_class_sessions.(c) + 1) class_of;
  let class_stats =
    List.mapi
      (fun i c ->
        {
          cs_scenario = c.cl_scenario;
          cs_sessions = per_class_sessions.(i);
          cs_ops = Array.length c.cl_host_svc;
          cs_comm_us = c.cl_comm_us;
        })
      (Array.to_list classes)
  in
  let result =
    {
      r_app = app.App.app_name;
      r_network = network.Network.net_name;
      r_arrival = arrival;
      r_seed = seed;
      r_sessions = sessions;
      r_queueing = queueing;
      r_deadline_us = deadline_us;
      r_classes = class_stats;
      r_total_ops = totals.st_ops;
      r_p50_us = q.(0);
      r_p95_us = q.(1);
      r_p99_us = q.(2);
      r_mean_us = mean;
      r_max_us = lat.(sessions - 1);
      r_throughput_per_s = throughput;
      r_availability = availability;
      r_duration_us = duration;
      r_host_util = (if duration > 0. then totals.st_host_busy_us /. duration else 0.);
      r_link_util = (if duration > 0. then totals.st_link_busy_us /. duration else 0.);
    }
  in
  (match metrics with
  | None -> ()
  | Some reg ->
      let open Coign_obs in
      Metrics.inc_int
        (Metrics.counter reg ~help:"Sessions driven by the open-loop load simulator"
           "coign_load_sessions_total")
        sessions;
      Metrics.inc_int
        (Metrics.counter reg ~help:"Remote operations simulated under load"
           "coign_load_ops_total")
        totals.st_ops;
      (* [lat] is permuted by now; histogram buckets ignore order. *)
      let lat_hist =
        Metrics.histogram reg ~help:"End-to-end session latency under load (us)"
          "coign_load_session_latency_us"
      in
      Array.iter (fun l -> Metrics.observe lat_hist (int_of_float l)) lat;
      let comm_hist =
        Metrics.histogram reg ~help:"Unloaded per-session communication time (us)"
          "coign_load_session_comm_us"
      in
      Array.iter
        (fun c -> Metrics.observe comm_hist (int_of_float classes.(c).cl_comm_us))
        class_of;
      Metrics.set
        (Metrics.gauge reg ~help:"Observed session completion rate" "coign_load_throughput_per_s")
        throughput;
      Metrics.set
        (Metrics.gauge reg ~help:"Fraction of sessions within the deadline"
           "coign_load_availability")
        availability);
  result

(* ---------------------------------------------------------------- *)
(* Rendering                                                         *)
(* ---------------------------------------------------------------- *)

let pp_text ppf r =
  Format.fprintf ppf "open-loop load: %s on %s@," r.r_app r.r_network;
  Format.fprintf ppf "arrival %s, %d sessions, seed 0x%LX, queueing %s@,"
    (arrival_to_string r.r_arrival) r.r_sessions r.r_seed
    (if r.r_queueing then "on" else "off");
  Format.fprintf ppf "%-10s  %9s  %11s  %12s@," "scenario" "sessions" "ops/session"
    "comm (ms)";
  Format.fprintf ppf "%s@," (String.make 48 '-');
  List.iter
    (fun c ->
      Format.fprintf ppf "%-10s  %9d  %11d  %12.3f@," c.cs_scenario c.cs_sessions c.cs_ops
        (c.cs_comm_us /. 1e3))
    r.r_classes;
  Format.fprintf ppf "latency ms: p50 %.3f  p95 %.3f  p99 %.3f  mean %.3f  max %.3f@,"
    (r.r_p50_us /. 1e3) (r.r_p95_us /. 1e3) (r.r_p99_us /. 1e3) (r.r_mean_us /. 1e3)
    (r.r_max_us /. 1e3);
  Format.fprintf ppf "throughput %.2f sessions/s, availability %.4f%s@," r.r_throughput_per_s
    r.r_availability
    (match r.r_deadline_us with
    | None -> ""
    | Some d -> Printf.sprintf " (deadline %.1f ms)" (d /. 1e3));
  Format.fprintf ppf "host util %.3f, link util %.3f, duration %.3f s, %d remote ops@,"
    r.r_host_util r.r_link_util (r.r_duration_us /. 1e6) r.r_total_ops

let to_json r =
  Jsonu.Obj
    [
      ("app", Jsonu.Str r.r_app);
      ("network", Jsonu.Str r.r_network);
      ("arrival", Jsonu.Str (arrival_to_string r.r_arrival));
      ("seed", Jsonu.Str (Printf.sprintf "0x%LX" r.r_seed));
      ("sessions", Jsonu.Int r.r_sessions);
      ("queueing", Jsonu.Bool r.r_queueing);
      ( "deadline_us",
        match r.r_deadline_us with None -> Jsonu.Null | Some d -> Jsonu.Float d );
      ( "classes",
        Jsonu.Arr
          (List.map
             (fun c ->
               Jsonu.Obj
                 [
                   ("scenario", Jsonu.Str c.cs_scenario);
                   ("sessions", Jsonu.Int c.cs_sessions);
                   ("ops_per_session", Jsonu.Int c.cs_ops);
                   ("comm_us", Jsonu.Float c.cs_comm_us);
                 ])
             r.r_classes) );
      ("total_ops", Jsonu.Int r.r_total_ops);
      ("p50_us", Jsonu.Float r.r_p50_us);
      ("p95_us", Jsonu.Float r.r_p95_us);
      ("p99_us", Jsonu.Float r.r_p99_us);
      ("mean_us", Jsonu.Float r.r_mean_us);
      ("max_us", Jsonu.Float r.r_max_us);
      ("throughput_per_s", Jsonu.Float r.r_throughput_per_s);
      ("availability", Jsonu.Float r.r_availability);
      ("duration_us", Jsonu.Float r.r_duration_us);
      ("host_util", Jsonu.Float r.r_host_util);
      ("link_util", Jsonu.Float r.r_link_util);
    ]
