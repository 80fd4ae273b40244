open Coign_util
open Coign_netsim
open Coign_core
open Coign_apps
open Coign_sim

let qtest = QCheck_alcotest.to_alcotest
let network = Network.ethernet_10
let bits = Int64.bits_of_float

(* One analyzed benefits image, built once and shared: loadsim never
   mutates it (every run decodes its own classifier). *)
let benefits_img =
  lazy
    (let app = Suite.find_app "benefits" in
     let image = Adps.instrument app.App.app_image in
     let image, _ =
       Adps.profile ~image ~registry:app.App.app_registry (App.scenario app "b_vueone").App.sc_run
     in
     let image, _ =
       Adps.profile ~image ~registry:app.App.app_registry (App.scenario app "b_addone").App.sc_run
     in
     let net = Net_profiler.profile (Prng.create 7L) network in
     fst (Adps.analyze ~image ~net ()))

(* --- Hand-computed queueing trace ----------------------------------- *)

(* A network chosen so every number below is an exact small integer:
   latency 10us, bandwidth 8 Mbps (so transmission is exactly 1 us per
   byte), protocol processing 100us per message. One op of (request
   100 B, reply 50 B) then costs:
     host service  = 100 + 100            = 200 us  (two messages' proc)
     link service  = (10 + 100) + (10+50) = 170 us
     unloaded comm = (100+10+100) + (100+10+50) = 370 us *)
let hand_net = Network.make ~name:"hand" ~latency_us:10. ~bandwidth_mbps:8. ~proc_us:100.

let test_hand_trace () =
  let cls = Loadsim.class_of_ops ~network:hand_net ~scenario:"h" [ (100, 50) ] in
  Alcotest.(check int64) "host svc" (bits 200.) (bits cls.Loadsim.cl_host_svc.(0));
  Alcotest.(check int64) "link svc" (bits 170.) (bits cls.Loadsim.cl_link_svc.(0));
  Alcotest.(check int64) "unloaded comm" (bits 370.) (bits cls.Loadsim.cl_comm_us);
  (* Three arrivals through the shared host-then-link tandem (M/D/1
     style, done by hand):
       s0 arrives   0: host    0->200, link  200->370   latency 370
       s1 arrives  50: host  200->400  (waits 150 behind s0),
                       link  400->570  (the link is already free at
                       370, so no link wait)         latency 520
       s2 arrives 1000: both queues idle again: host 1000->1200,
                       link 1200->1370                latency 370 *)
  let traces = ref [] in
  let totals =
    Loadsim.simulate
      ~sink:(fun t -> traces := t :: !traces)
      ~classes:[| cls |]
      ~arrivals:[| 0.; 50.; 1000. |]
      ~class_of:[| 0; 0; 0 |] ()
  in
  let expect =
    [
      (0, 0., 0., 200., 200., 370.);
      (1, 50., 200., 400., 400., 570.);
      (2, 1000., 1000., 1200., 1200., 1370.);
    ]
  in
  let got = List.rev !traces in
  Alcotest.(check int) "three ops traced" 3 (List.length got);
  List.iter2
    (fun (s, ready, hs, hf, ls, lf) (t : Loadsim.op_trace) ->
      Alcotest.(check int) "session" s t.Loadsim.ot_session;
      Alcotest.(check int64) "ready" (bits ready) (bits t.Loadsim.ot_ready_us);
      Alcotest.(check int64) "host start" (bits hs) (bits t.Loadsim.ot_host_start_us);
      Alcotest.(check int64) "host finish" (bits hf) (bits t.Loadsim.ot_host_finish_us);
      Alcotest.(check int64) "link start" (bits ls) (bits t.Loadsim.ot_link_start_us);
      Alcotest.(check int64) "finish" (bits lf) (bits t.Loadsim.ot_finish_us))
    expect got;
  Alcotest.(check int64) "latency s0" (bits 370.) (bits totals.Loadsim.st_latency_us.(0));
  Alcotest.(check int64) "latency s1" (bits 520.) (bits totals.Loadsim.st_latency_us.(1));
  Alcotest.(check int64) "latency s2" (bits 370.) (bits totals.Loadsim.st_latency_us.(2));
  Alcotest.(check int64) "host busy" (bits 600.) (bits totals.Loadsim.st_host_busy_us);
  Alcotest.(check int64) "link busy" (bits 510.) (bits totals.Loadsim.st_link_busy_us);
  Alcotest.(check int64) "last finish" (bits 1370.) (bits totals.Loadsim.st_last_finish_us);
  Alcotest.(check int) "op count" 3 totals.Loadsim.st_ops

let test_hand_trace_multi_op () =
  (* Two sessions of a two-op class; checks the continuation ring and
     the tie rule. By hand:
       s0@0:   op0 host   0->200, link 200->370; s0 ready again at 370
       s1@100: a *new* arrival at 100 beats s0's pending 370:
               op0 host 200->400, link 400->570; s1 pending at 570
       s0@370: op1 host 400->600, link 600->770   latency 770
       s1@570: op1 host 600->800, link 800->970   latency 870 *)
  let cls = Loadsim.class_of_ops ~network:hand_net ~scenario:"h2" [ (100, 50); (100, 50) ] in
  let order = ref [] in
  let totals =
    Loadsim.simulate
      ~sink:(fun t -> order := (t.Loadsim.ot_session, t.Loadsim.ot_op) :: !order)
      ~classes:[| cls |] ~arrivals:[| 0.; 100. |] ~class_of:[| 0; 0 |] ()
  in
  Alcotest.(check (list (pair int int)))
    "processing order interleaves"
    [ (0, 0); (1, 0); (0, 1); (1, 1) ]
    (List.rev !order);
  Alcotest.(check int64) "latency s0" (bits 770.) (bits totals.Loadsim.st_latency_us.(0));
  Alcotest.(check int64) "latency s1" (bits 870.) (bits totals.Loadsim.st_latency_us.(1));
  Alcotest.(check int64) "last finish" (bits 970.) (bits totals.Loadsim.st_last_finish_us)

(* --- Identity gate --------------------------------------------------- *)

(* With queueing off, a single session must reproduce the Replay
   communication estimate bit for bit — the same zero-cost argument as
   the PR 4/5 gates: the loadsim compile is a mirror of Replay's
   fault-free walk, and a fault-free Fault.call charges exactly
   request + reply. *)
let test_identity_gate () =
  let image = Lazy.force benefits_img in
  let app = Suite.find_app "benefits" in
  let sc = App.scenario app "b_vueone" in
  let classifier, dist = Option.get (Adps.load_distribution image) in
  let events =
    Replay.record_scenario ~registry:app.App.app_registry ~classifier sc.App.sc_run
  in
  let est = Replay.what_if ~events ~distribution:dist ~network () in
  Alcotest.(check bool) "estimate is non-trivial" true (est.Replay.re_comm_us > 0.);
  let r =
    Loadsim.run ~queueing:false ~sessions:1 ~scenarios:[ "b_vueone" ]
      ~arrival:(Loadsim.Poisson 50.) ~seed:3L ~image ~network ()
  in
  Alcotest.(check int64) "p50 == replay comm, bit-exact" (bits est.Replay.re_comm_us)
    (bits r.Loadsim.r_p50_us);
  Alcotest.(check int64) "p99 == replay comm, bit-exact" (bits est.Replay.re_comm_us)
    (bits r.Loadsim.r_p99_us);
  match r.Loadsim.r_classes with
  | [ c ] ->
      Alcotest.(check int64) "class comm == replay comm, bit-exact"
        (bits est.Replay.re_comm_us) (bits c.Loadsim.cs_comm_us)
  | _ -> Alcotest.fail "expected exactly one session class"

(* --- Load-dependence ------------------------------------------------- *)

let test_p99_grows_with_rate () =
  let image = Lazy.force benefits_img in
  let p99 rate =
    (Loadsim.run ~sessions:600 ~scenarios:[ "b_vueone"; "b_addone" ]
       ~arrival:(Loadsim.Poisson rate) ~seed:21L ~image ~network ())
      .Loadsim.r_p99_us
  in
  let a = p99 10. and b = p99 40. and c = p99 160. in
  Alcotest.(check bool)
    (Printf.sprintf "p99 strictly increasing: %.0f < %.0f < %.0f" a b c)
    true
    (a < b && b < c)

(* --- Metrics --------------------------------------------------------- *)

let test_metrics_instruments () =
  let open Coign_obs in
  let image = Lazy.force benefits_img in
  let reg = Metrics.registry () in
  let r =
    Loadsim.run ~metrics:reg ~sessions:40 ~scenarios:[ "b_vueone" ]
      ~arrival:(Loadsim.Poisson 20.) ~seed:1L ~image ~network ()
  in
  Alcotest.(check (float 0.)) "sessions counter" 40.
    (Metrics.counter_value (Metrics.counter reg "coign_load_sessions_total"));
  Alcotest.(check (float 0.)) "ops counter" (float_of_int r.Loadsim.r_total_ops)
    (Metrics.counter_value (Metrics.counter reg "coign_load_ops_total"));
  Alcotest.(check int) "latency histogram count" 40
    (Metrics.histogram_count (Metrics.histogram reg "coign_load_session_latency_us"));
  Alcotest.(check int) "comm histogram count" 40
    (Metrics.histogram_count (Metrics.histogram reg "coign_load_session_comm_us"));
  Alcotest.(check (float 0.)) "availability gauge" r.Loadsim.r_availability
    (Metrics.gauge_value (Metrics.gauge reg "coign_load_availability"))

(* --- qcheck properties ----------------------------------------------- *)

let gen_arrival =
  QCheck.Gen.(
    oneof
      [
        map (fun r -> Loadsim.Poisson (float_of_int r)) (int_range 1 2000);
        map3
          (fun r on off ->
            Loadsim.Bursty
              {
                b_rate = float_of_int r;
                b_on_ms = float_of_int on;
                b_off_ms = float_of_int off;
              })
          (int_range 1 2000) (int_range 1 500) (int_range 0 500);
        map2
          (fun p per ->
            Loadsim.Diurnal { d_peak = float_of_int p; d_period_s = float_of_int per })
          (int_range 1 2000) (int_range 1 120);
      ])

let arb_arrival_seed =
  QCheck.make
    ~print:(fun (a, s) -> Printf.sprintf "%s seed=%d" (Loadsim.arrival_to_string a) s)
    QCheck.Gen.(pair gen_arrival (int_range 0 100_000))

let prop_arrivals_nondecreasing =
  QCheck.Test.make ~name:"arrival generators emit nondecreasing timestamps" ~count:120
    arb_arrival_seed (fun (a, seed) ->
      let arrivals, class_of =
        Loadsim.gen_arrivals ~seed:(Int64.of_int seed) ~sessions:300 ~classes:4 a
      in
      let ok = ref (arrivals.(0) >= 0.) in
      for i = 1 to Array.length arrivals - 1 do
        if arrivals.(i) < arrivals.(i - 1) then ok := false
      done;
      Array.iter (fun c -> if c < 0 || c >= 4 then ok := false) class_of;
      !ok)

let prop_arrival_spec_roundtrip =
  QCheck.Test.make ~name:"arrival spec parses back to itself" ~count:100 arb_arrival_seed
    (fun (a, _) ->
      match Loadsim.arrival_of_string (Loadsim.arrival_to_string a) with
      | Ok b -> b = a
      | Error _ -> false)

let prop_percentiles_and_availability =
  QCheck.Test.make ~name:"p50 <= p95 <= p99 <= max; availability in [0,1]" ~count:10
    arb_arrival_seed (fun (a, k) ->
      let image = Lazy.force benefits_img in
      let r =
        Loadsim.run ~sessions:150
          ~deadline_us:(1000. +. float_of_int (200 * (k mod 997)))
          ~scenarios:[ "b_vueone"; "b_addone" ] ~arrival:a ~seed:(Int64.of_int k) ~image
          ~network ()
      in
      r.Loadsim.r_p50_us <= r.Loadsim.r_p95_us
      && r.Loadsim.r_p95_us <= r.Loadsim.r_p99_us
      && r.Loadsim.r_p99_us <= r.Loadsim.r_max_us
      && r.Loadsim.r_availability >= 0.
      && r.Loadsim.r_availability <= 1.)

let prop_seed_determinism_across_pools =
  QCheck.Test.make ~name:"same seed, byte-identical report across runs and pools" ~count:5
    arb_arrival_seed (fun (a, k) ->
      let image = Lazy.force benefits_img in
      let go pool =
        Jsonu.to_string
          (Loadsim.to_json
             (Loadsim.run ?pool ~sessions:120 ~scenarios:[ "b_vueone"; "b_addone" ]
                ~arrival:a ~seed:(Int64.of_int k) ~image ~network ()))
      in
      (* jobs 1 / 2 / 4 in CLI terms: no pool, 1 worker, 3 workers. *)
      let p2 = Parallel.create ~domains:1 () in
      let p4 = Parallel.create ~domains:3 () in
      let base = go None in
      let again = go None in
      let r2 = go (Some p2) and r4 = go (Some p4) in
      Parallel.shutdown p2;
      Parallel.shutdown p4;
      String.equal base again && String.equal base r2 && String.equal base r4)

(* Three chunks, the last one short: every chunk boundary of the
   in-place fill is crossed, with and without worker domains. *)
let test_arrivals_multi_chunk_pools () =
  let sessions = (2 * 16_384) + 7 in
  let p2 = Parallel.create ~domains:1 () in
  let p4 = Parallel.create ~domains:3 () in
  let key (arrivals, class_of) = (Array.map bits arrivals, class_of) in
  List.iter
    (fun arrival ->
      let go pool = key (Loadsim.gen_arrivals ?pool ~seed:99L ~sessions ~classes:7 arrival) in
      let base = go None in
      let name = Loadsim.arrival_to_string arrival in
      Alcotest.(check bool) (name ^ ": 1 worker") true (base = go (Some p2));
      Alcotest.(check bool) (name ^ ": 3 workers") true (base = go (Some p4)))
    [
      Loadsim.Poisson 40.;
      Loadsim.Bursty { b_rate = 80.; b_on_ms = 50.; b_off_ms = 30. };
      Loadsim.Diurnal { d_peak = 60.; d_period_s = 20. };
    ];
  Parallel.shutdown p2;
  Parallel.shutdown p4

(* The streamed compile sees the same events in the same order as a
   recorded trace, so it must charge the same ops. An alternating
   placement crosses the cut far more often than an analyzed one,
   including non-remotable calls. *)
let test_streamed_compile_matches_list () =
  let placement c = if c land 1 = 0 then Constraints.Client else Constraints.Server in
  List.iter
    (fun (app : App.t) ->
      let crossed = ref 0 in
      List.iter
        (fun (sc : App.scenario) ->
          let fresh () = Classifier.create Classifier.Ifcb in
          let registry = app.App.app_registry in
          let listed =
            Loadsim.ops_of_events ~placement
              (Replay.record_scenario ~registry ~classifier:(fresh ()) sc.App.sc_run)
          in
          let streamed =
            Loadsim.ops_of_scenario ~registry ~classifier:(fresh ()) ~placement sc.App.sc_run
          in
          Alcotest.(check (list (pair int int))) (sc.App.sc_id ^ " ops") listed streamed;
          crossed := !crossed + List.length streamed;
          let comm ops = (Loadsim.class_of_ops ~network ~scenario:sc.App.sc_id ops).cl_comm_us in
          Alcotest.(check int64)
            (sc.App.sc_id ^ " comm bits")
            (bits (comm listed)) (bits (comm streamed)))
        (App.non_bigone app);
      Alcotest.(check bool) (app.App.app_name ^ " crosses the cut") true (!crossed > 0))
    Suite.all

let suite =
  [
    Alcotest.test_case "hand-computed queueing trace" `Quick test_hand_trace;
    Alcotest.test_case "hand trace: continuations and tie rule" `Quick
      test_hand_trace_multi_op;
    Alcotest.test_case "identity gate: queueing off == Replay" `Slow test_identity_gate;
    Alcotest.test_case "p99 grows with arrival rate" `Slow test_p99_grows_with_rate;
    Alcotest.test_case "coign_load_* metrics" `Slow test_metrics_instruments;
    qtest prop_arrivals_nondecreasing;
    qtest prop_arrival_spec_roundtrip;
    qtest ~long:false prop_percentiles_and_availability;
    qtest ~long:false prop_seed_determinism_across_pools;
    Alcotest.test_case "arrivals: multi-chunk fill across pools" `Quick
      test_arrivals_multi_chunk_pools;
    Alcotest.test_case "streamed class compile == list compile" `Slow
      test_streamed_compile_matches_list;
  ]
