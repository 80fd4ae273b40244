(* The four workloads. Each set-up builds, from the seed, one pass of a
   fixed job list plus the reference outputs its checks compare against;
   a job is a closure that calls the library's public API and returns its
   modelled communication, its unit operations and any failed checks. *)

open Coign_util
open Coign_core
open Coign_apps
module Binary_image = Coign_image.Binary_image
module Net_profiler = Coign_netsim.Net_profiler
module Network = Coign_netsim.Network
module Fault = Coign_netsim.Fault
module Loadsim = Coign_sim.Loadsim
module Replay = Coign_sim.Replay

let span = Tracing.span
let count name v = Tracing.count name v
let counti name v = Tracing.count name (float_of_int v)

type outcome = { comm_us : float; ops : int; failures : string list }

type instance = {
  jobs : (unit -> outcome) array;  (** one pass, in seeded order *)
  setup_failures : string list;  (** set-up checks that did not hold *)
  calibrate : unit -> unit;  (** traced-mode reference measurements *)
}

let network = Network.ethernet_10

(* PhotoDraw is drawn twice per pass: with five equally weighted slots
   the median job falls inside one application's cluster of job times,
   never on the boundary between two clusters, so job_p50_ms is steady. *)
let app_slots = [| "octarine"; "photodraw"; "photodraw"; "benefits"; "ingest" |]

let distinct_apps = [ "octarine"; "photodraw"; "benefits"; "ingest" ]

(* The network as the profiler measures it: seeded observation noise,
   so each seed prices the same cut slightly differently. *)
let measured seed i net = Net_profiler.profile (Prng.create (Prng.stream seed i)) net

let shuffled seed jobs =
  let a = Array.of_list jobs in
  Prng.shuffle (Prng.create (Prng.stream seed 99)) a;
  a

let no_calibration () = ()

(* Collects the failed checks of one job. *)
let checker () =
  let failures = ref [] in
  let check what ok = if not (span "check" (fun () -> ok ())) then failures := what :: !failures in
  (failures, check)

let profile_all (app : App.t) image =
  List.fold_left
    (fun image (sc : App.scenario) ->
      fst (Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run))
    image (App.non_bigone app)

(* ------------------------------------------------------------------ *)
(* Bare reference: each scenario on a plain Runtime ctx, no Coign RTE. *)

let bare_us : (string, float) Hashtbl.t = Hashtbl.create 32
let bare_calls : (string, int) Hashtbl.t = Hashtbl.create 32

let calibrate_bare ~reps =
  List.iter
    (fun name ->
      let app = Suite.find_app name in
      let image = ref (Adps.instrument app.App.app_image) in
      List.iter
        (fun (sc : App.scenario) ->
          let img, st = Adps.profile ~image:!image ~registry:app.App.app_registry sc.App.sc_run in
          image := img;
          Hashtbl.replace bare_calls sc.App.sc_id st.Adps.ps_calls;
          let times =
            Array.init reps (fun _ ->
                let ctx = Coign_com.Runtime.create_ctx app.App.app_registry in
                let t0 = Unix.gettimeofday () in
                sc.App.sc_run ctx;
                (Unix.gettimeofday () -. t0) *. 1e6)
          in
          Hashtbl.replace bare_us sc.App.sc_id (Stats.percentile times 50.))
        (App.non_bigone app))
    distinct_apps

let bare_of id = Option.value ~default:0. (Hashtbl.find_opt bare_us id)

(* ------------------------------------------------------------------ *)
(* partition: the developer's offline run of paper Figure 1.           *)

let roundtrip check image =
  let bytes = span "image.encode" (fun () -> Binary_image.encode image) in
  counti "image.bytes" (String.length bytes);
  let back = span "image.decode" (fun () -> Binary_image.decode bytes) in
  check "image round-trips through encode/decode" (fun () -> Binary_image.equal image back);
  back

let partition_job (app : App.t) ~net ~constraints ~reference () =
  let failures, check = checker () in
  let registry = app.App.app_registry in
  let image = span "image.instrument" (fun () -> Adps.instrument app.App.app_image) in
  let image, calls, classifications =
    List.fold_left
      (fun (image, calls, _) (sc : App.scenario) ->
        let image, st = span "rte.profile" (fun () -> Adps.profile ~image ~registry sc.App.sc_run) in
        counti "profile.calls" st.Adps.ps_calls;
        counti "profile.bytes" st.Adps.ps_bytes;
        count "profile.compute_us" st.Adps.ps_compute_us;
        count "profile.bare_us" (bare_of sc.App.sc_id);
        (roundtrip check image, calls + st.Adps.ps_calls, st.Adps.ps_classifications))
      (image, 0, 0) (App.non_bigone app)
  in
  counti "profile.classifications" classifications;
  let analyzed, dist = span "analysis.analyze" (fun () -> Adps.analyze ~image ~net ()) in
  ignore (roundtrip check analyzed);
  check "cut equals the set-up reference" (fun () -> String.equal (Analysis.encode dist) reference);
  check "cut passes Analysis.validate" (fun () ->
      match Adps.load_distribution analyzed with
      | Some (classifier, _) -> Analysis.validate ~classifier ~constraints dist = []
      | None -> false);
  { comm_us = dist.Analysis.predicted_comm_us; ops = calls; failures = !failures }

let partition ~seed =
  let net = measured seed 0 network in
  let references =
    List.map
      (fun name ->
        let app = Suite.find_app name in
        let profiled = profile_all app (Adps.instrument app.App.app_image) in
        let constraints = Analysis.Session.constraints (Adps.analysis_session profiled) in
        let _, dist = Adps.analyze ~image:profiled ~net () in
        (name, (app, constraints, Analysis.encode dist)))
      distinct_apps
  in
  let jobs =
    Array.to_list app_slots
    |> List.map (fun name ->
           let app, constraints, reference = List.assoc name references in
           partition_job app ~net ~constraints ~reference)
  in
  { jobs = shuffled seed jobs; setup_failures = []; calibrate = no_calibration }

(* ------------------------------------------------------------------ *)
(* adapt: one profile re-cut for many networks and usage shifts.       *)

let sweep_points = 24
let recuts = 4
let sampled_points = 2

let adapt_job ~bytes ~nets ~net ~scales ~sample () =
  let failures, check = checker () in
  let profiler = Tracing.profiler () in
  let image = span "image.decode" (fun () -> Binary_image.decode bytes) in
  let session = span "analysis.session" (fun () -> Adps.analysis_session ?profiler image) in
  let classifier = Analysis.Session.classifier session in
  let constraints = Analysis.Session.constraints session in
  let swept =
    List.map
      (fun net -> span "analysis.solve" (fun () -> Analysis.Session.solve ?profiler session ~net))
      nets
  in
  let recut =
    List.map
      (fun scale ->
        span "analysis.recut" (fun () -> Analysis.Session.solve ?profiler ~scale session ~net))
      scales
  in
  let cuts = swept @ recut in
  List.iter
    (fun d ->
      let v = span "analysis.validate" (fun () -> Analysis.validate ~classifier ~constraints d) in
      check "cut passes Analysis.validate" (fun () -> v = []))
    cuts;
  let ladder = span "fallback.ladder" (fun () -> Adps.fallback_ladder ~image ~net ()) in
  counti "fallback.rungs" (Fallback.rung_count ladder);
  let classifier, icc =
    span "analysis.load_profile" (fun () -> Option.get (Adps.load_profile image))
  in
  let model =
    span "verify.model" (fun () ->
        Coign_verify.Model.build ~classifier ~icc ~ladder
          ~truth:(Fallback.migration_safety session) ())
  in
  let result = span "verify.explore" (fun () -> Coign_verify.Explore.run model) in
  let stats = result.Coign_verify.Explore.r_stats in
  counti "verify.states" stats.Coign_verify.Explore.sr_states;
  check "verify explores every state with zero violations" (fun () ->
      stats.Coign_verify.Explore.sr_complete && result.Coign_verify.Explore.r_violations = []);
  List.iter
    (fun i ->
      check "session cut equals a fresh Analysis.choose" (fun () ->
          let fresh =
            Analysis.choose ~classifier ~icc ~constraints ~net:(List.nth nets i) ()
          in
          String.equal (Analysis.encode fresh) (Analysis.encode (List.nth swept i))))
    sample;
  let n = List.length cuts in
  counti "analysis.solves" n;
  {
    comm_us = List.fold_left (fun acc d -> acc +. d.Analysis.predicted_comm_us) 0. cuts;
    ops = n;
    failures = !failures;
  }

let adapt ~seed =
  let net = measured seed 0 network in
  let nets =
    List.mapi
      (fun i n -> measured seed (i + 1) n)
      (Network.geometric_sweep ~points:sweep_points ~from_net:Network.isdn_128
         ~to_net:Network.san_1g ())
  in
  let profiled =
    List.map
      (fun name ->
        let app = Suite.find_app name in
        let image = profile_all app (Adps.instrument app.App.app_image) in
        let pairs = Icc_graph.pair_count (Analysis.Session.graph (Adps.analysis_session image)) in
        (name, (Binary_image.encode image, pairs)))
      distinct_apps
  in
  let jobs =
    Array.to_list app_slots
    |> List.mapi (fun slot name ->
           let bytes, pairs = List.assoc name profiled in
           let rng = Prng.create (Prng.stream seed (1000 + slot)) in
           let factor () = 0.25 +. Prng.float rng 1.75 in
           let scales =
             List.init recuts (fun _ ->
                 {
                   Icc_graph.sc_messages = Array.init pairs (fun _ -> factor ());
                   sc_bytes = Array.init pairs (fun _ -> factor ());
                 })
           in
           let sample = List.init sampled_points (fun _ -> Prng.int rng sweep_points) in
           adapt_job ~bytes ~nets ~net ~scales ~sample)
  in
  { jobs = shuffled seed jobs; setup_failures = []; calibrate = no_calibration }

(* ------------------------------------------------------------------ *)
(* serve: the partitioned application under user sessions.           *)

type engine = Retry | Lossy | Resilience | Fleet | Watch | Observed

let engines = [ Retry; Lossy; Resilience; Fleet; Watch; Observed ]

let engine_name = function
  | Retry -> "retry"
  | Lossy -> "lossy"
  | Resilience -> "resilience"
  | Fleet -> "fleet"
  | Watch -> "watch"
  | Observed -> "observed"

let fault_window = { Fault.zero with Fault.fs_partitions_us = [ (50_000., 550_000.) ] }

let lossy_faults =
  { Fault.zero with Fault.fs_drop_rate = 0.02; fs_spike_rate = 0.01; fs_spike_mean_us = 2_000. }

type deployed = {
  d_app : App.t;
  d_image : Binary_image.t;  (** analyzed, distributed mode *)
  d_session : Analysis.Session.t;  (** watch re-cuts re-price copies of it *)
  d_net : Net_profiler.t;
  d_resilience : Rte.resilience_config;
  d_fleet : Rte.fleet_config;
}

let deploy ~net name =
  let app = Suite.find_app name in
  let profiled = profile_all app (Adps.instrument app.App.app_image) in
  let session = Adps.analysis_session profiled in
  let image, _ = Adps.analyze_with ~session ~image:profiled ~net () in
  {
    d_app = app;
    d_image = image;
    d_session = session;
    d_net = net;
    d_resilience = Rte.resilience (Adps.fallback_ladder ~image:profiled ~net ());
    d_fleet =
      Rte.fleet ~host_faults:[ (0, fault_window) ]
        (Adps.pool_fallback_ladder ~hosts:3 ~image:profiled ~net ());
  }

let no_fleet : Rte.fleet_stats option = None

let execute d (sc : App.scenario) engine ~seed =
  let image = d.d_image and registry = d.d_app.App.app_registry in
  let run = sc.App.sc_run in
  match engine with
  | Retry -> (Adps.execute ~image ~registry ~network run, no_fleet)
  | Lossy ->
      (Adps.execute ~image ~registry ~network ~jitter:0.05 ~seed ~faults:lossy_faults run, no_fleet)
  | Resilience ->
      ( Adps.execute ~image ~registry ~network ~seed ~faults:fault_window
          ~resilience:d.d_resilience run,
        no_fleet )
  | Fleet ->
      let stats, fs = Adps.execute_fleet ~image ~registry ~network ~seed ~fleet:d.d_fleet run in
      (stats, Some fs)
  | Watch ->
      let watch = Rte.watch ~net:d.d_net (Analysis.Session.copy d.d_session) in
      (Adps.execute ~image ~registry ~network ~seed ~watch run, no_fleet)
  | Observed ->
      let sink, _spans = Coign_obs.Trace.collector () in
      let tracer = Coign_obs.Trace.create sink in
      let metrics = Coign_obs.Metrics.registry () in
      (Adps.execute ~tracer ~metrics ~image ~registry ~network run, no_fleet)

let serve_job d sc engine ~seed ~reference ~clean_calls () =
  let failures, check = checker () in
  let name = engine_name engine in
  let ((s, fleet) as got) = span ("rte.execute." ^ name) (fun () -> execute d sc engine ~seed) in
  check "session stats equal the set-up reference" (fun () -> got = reference);
  counti ("serve.intercepted." ^ name) s.Adps.es_intercepted;
  counti "serve.intercepted" s.Adps.es_intercepted;
  counti "serve.clean_intercepted" clean_calls;
  counti "serve.jobs" 1;
  counti ("serve.jobs." ^ name) 1;
  counti "netsim.retries" s.Adps.es_retries;
  counti "netsim.drops" s.Adps.es_drops;
  counti "rte.remote_calls" s.Adps.es_remote_calls;
  counti "resilience.breaker_opens" s.Adps.es_breaker_opens;
  counti "resilience.failovers" s.Adps.es_failovers;
  counti "rte.migrations" (s.Adps.es_migrations + s.Adps.es_watch_migrations);
  counti "watch.drift_checks" s.Adps.es_drift_checks;
  counti "watch.repartitions" s.Adps.es_repartitions;
  Option.iter
    (fun (fs : Rte.fleet_stats) ->
      counti "fleet.promotions" fs.Rte.fs_promotions;
      counti "fleet.splits" fs.Rte.fs_splits;
      counti "rte.migrations" fs.Rte.fs_migrations)
    fleet;
  if engine = Retry then begin
    count "serve.retry.bare_us" (bare_of sc.App.sc_id);
    count "serve.retry.compute_us" s.Adps.es_compute_us
  end;
  { comm_us = s.Adps.es_comm_us; ops = s.Adps.es_intercepted; failures = !failures }

let same_comm (a : Adps.exec_stats) (b : Adps.exec_stats) =
  Int64.bits_of_float a.Adps.es_comm_us = Int64.bits_of_float b.Adps.es_comm_us
  && a.Adps.es_remote_calls = b.Adps.es_remote_calls
  && a.Adps.es_remote_bytes = b.Adps.es_remote_bytes
  && a.Adps.es_intercepted = b.Adps.es_intercepted

(* Set-up identities on the clean link: the live RTE at zero jitter
   costs exactly what Replay predicts, a quiet watch (threshold 0 never
   fires) and an observed run both equal the bare retry-only session. *)
let serve_identities d (sc : App.scenario) (clean : Adps.exec_stats) =
  let image = d.d_image and registry = d.d_app.App.app_registry in
  let classifier, dist = Option.get (Adps.load_distribution image) in
  let events = Replay.record_scenario ~registry ~classifier sc.App.sc_run in
  let est = Replay.what_if ~events ~distribution:dist ~network () in
  let quiet =
    Adps.execute ~image ~registry ~network
      ~watch:(Rte.watch ~threshold:0. ~net:d.d_net (Analysis.Session.copy d.d_session))
      sc.App.sc_run
  in
  let observed, _ = execute d sc Observed ~seed:0L in
  List.filter_map
    (fun (what, ok) -> if ok then None else Some (Printf.sprintf "%s: %s" sc.App.sc_id what))
    [
      ( "clean zero-jitter comm equals Replay.what_if",
        Int64.bits_of_float clean.Adps.es_comm_us = Int64.bits_of_float est.Replay.re_comm_us );
      ("quiet-watch session equals the bare session", same_comm quiet clean);
      ("observed session equals the bare session", observed = clean);
    ]

let serve ~seed =
  let net = measured seed 0 network in
  let k = ref 0 in
  let setup_failures = ref [] in
  let jobs =
    List.concat_map
      (fun name ->
        let d = deploy ~net name in
        List.concat_map
          (fun (sc : App.scenario) ->
            let clean, _ = execute d sc Retry ~seed:0L in
            setup_failures := serve_identities d sc clean @ !setup_failures;
            List.map
              (fun engine ->
                incr k;
                let seed = Prng.stream seed !k in
                let reference = execute d sc engine ~seed in
                serve_job d sc engine ~seed ~reference ~clean_calls:clean.Adps.es_intercepted)
              engines)
          (App.non_bigone d.d_app))
      distinct_apps
  in
  { jobs = shuffled seed jobs; setup_failures = !setup_failures; calibrate = no_calibration }

(* ------------------------------------------------------------------ *)
(* load: open-loop capacity simulation on the virtual clock.           *)

let sessions = 20_000

let load_mix = function
  | "octarine" -> [ "o_oldwp0"; "o_oldtb0"; "o_newdoc" ]
  | "photodraw" -> [ "p_oldmsr"; "p_newdoc"; "p_oldcur" ]
  | "benefits" -> [ "b_vueone"; "b_addone"; "b_delone" ]
  | _ -> [ "i_strm1"; "i_strm2"; "i_replay" ]

type provisioned = {
  p_image : Binary_image.t;
  p_mix : string list;
  p_classes : Loadsim.session_class array;  (** as Loadsim compiles them *)
  p_rate : float;  (** sessions/s at 80% of the busier server's capacity *)
}

let provision ~net name =
  let app = Suite.find_app name in
  let mix = load_mix name in
  let image =
    List.fold_left
      (fun image id ->
        fst (Adps.profile ~image ~registry:app.App.app_registry (App.scenario app id).App.sc_run))
      (Adps.instrument app.App.app_image) mix
  in
  let image, _ = Adps.analyze ~image ~net () in
  let classifier, dist = Option.get (Adps.load_distribution image) in
  let events id =
    Replay.record_scenario ~registry:app.App.app_registry ~classifier (App.scenario app id).App.sc_run
  in
  let traces = List.map (fun id -> (id, events id)) mix in
  let classes =
    Array.of_list
      (List.map
         (fun (id, ev) ->
           Loadsim.class_of_ops ~network ~scenario:id
             (Loadsim.ops_of_events ~placement:(Analysis.location_of dist) ev))
         traces)
  in
  let mean f =
    Array.fold_left (fun acc c -> acc +. Array.fold_left ( +. ) 0. (f c)) 0. classes
    /. float_of_int (Array.length classes)
  in
  let demand =
    Float.max (mean (fun c -> c.Loadsim.cl_host_svc)) (mean (fun c -> c.Loadsim.cl_link_svc))
  in
  (* Queueing off, one session: the latency is Replay's estimate, bit
     for bit. *)
  let failures =
    List.filter_map
      (fun (id, ev) ->
        let est = Replay.what_if ~events:ev ~distribution:dist ~network () in
        let r =
          Loadsim.run ~queueing:false ~sessions:1 ~scenarios:[ id ]
            ~arrival:(Loadsim.Poisson 1.) ~seed:1L ~image ~network ()
        in
        if Int64.bits_of_float r.Loadsim.r_p50_us = Int64.bits_of_float est.Replay.re_comm_us
        then None
        else Some (id ^ ": queueing-off single-session p50 equals Replay"))
      traces
  in
  ({ p_image = image; p_mix = mix; p_classes = classes; p_rate = 0.8 *. 1e6 /. demand }, failures)

let arrivals rate =
  let gap_ms = 1e3 /. rate in
  [
    Loadsim.Poisson rate;
    Loadsim.Bursty { b_rate = 2. *. rate; b_on_ms = 20. *. gap_ms; b_off_ms = 20. *. gap_ms };
    (* The raised cosine spans 5%..100% of the peak: its mean is 0.525
       of the peak, so the mean rate matches the Poisson one. *)
    Loadsim.Diurnal
      { d_peak = rate /. 0.525; d_period_s = float_of_int sessions /. rate /. 4. };
  ]

let load_job p ~arrival ~seed () =
  let failures, check = checker () in
  let r =
    span "loadsim.run" (fun () ->
        Loadsim.run ~sessions ~scenarios:p.p_mix ~arrival ~seed ~image:p.p_image ~network ())
  in
  let classes = r.Loadsim.r_classes in
  check "op totals are consistent" (fun () ->
      List.fold_left (fun n c -> n + (c.Loadsim.cs_sessions * c.Loadsim.cs_ops)) 0 classes
      = r.Loadsim.r_total_ops
      && List.fold_left (fun n c -> n + c.Loadsim.cs_sessions) 0 classes = sessions);
  check "p50 <= p95 <= p99 <= max" (fun () ->
      r.Loadsim.r_p50_us <= r.Loadsim.r_p95_us
      && r.Loadsim.r_p95_us <= r.Loadsim.r_p99_us
      && r.Loadsim.r_p99_us <= r.Loadsim.r_max_us);
  counti "loadsim.ops" r.Loadsim.r_total_ops;
  let comm =
    List.fold_left
      (fun acc c -> acc +. (float_of_int c.Loadsim.cs_sessions *. c.Loadsim.cs_comm_us))
      0. classes
  in
  { comm_us = comm /. float_of_int sessions; ops = r.Loadsim.r_total_ops; failures = !failures }

(* The two halves of Loadsim.run's event loop, called directly with the
   inputs of each job of the pass. *)
let load_calibrate cells () =
  List.iteri
    (fun i (p, arrival, seed) ->
      Tracing.job ~trace_id:(1_000_000 + i) "calibrate" (fun () ->
          let arrivals, class_of =
            span "loadsim.gen_arrivals" (fun () ->
                Loadsim.gen_arrivals ~seed ~sessions ~classes:(Array.length p.p_classes) arrival)
          in
          counti "loadsim.sessions" sessions;
          let totals =
            span "loadsim.simulate" (fun () ->
                Loadsim.simulate ~classes:p.p_classes ~arrivals ~class_of ())
          in
          counti "loadsim.simulated_ops" totals.Loadsim.st_ops))
    cells

let load ~seed =
  let net = measured seed 0 network in
  let provisioned = List.map (fun name -> (name, provision ~net name)) distinct_apps in
  let cells =
    Array.to_list app_slots
    |> List.concat_map (fun name ->
           let p, _ = List.assoc name provisioned in
           List.map (fun a -> (p, a)) (arrivals p.p_rate))
    |> List.mapi (fun i (p, a) -> (p, a, Prng.stream seed (2000 + i)))
  in
  {
    jobs = shuffled seed (List.map (fun (p, arrival, seed) -> load_job p ~arrival ~seed) cells);
    setup_failures = List.concat_map (fun (_, (_, f)) -> f) provisioned;
    calibrate = load_calibrate cells;
  }

let all = [ ("partition", partition); ("adapt", adapt); ("serve", serve); ("load", load) ]
