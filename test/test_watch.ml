(* Online re-partitioning: the observation window's decay arithmetic,
   the streaming sample tap, scaled re-pricing through the analysis
   session, the watch's zero-cost-when-quiet guarantee, and the
   closed-loop Watchsim verdict — detection, live re-cut, convergence
   to the offline oracle, and byte-identical reports across domains. *)

open Coign_util
open Coign_netsim
open Coign_core
open Coign_apps
module Tap = Coign_obs.Tap
module Window = Coign_core.Window

let check_bits name a b =
  Alcotest.(check int64) name (Int64.bits_of_float a) (Int64.bits_of_float b)

(* --- Window decay (hand-computed, power-of-two half-life) ----------- *)

let test_window_decay_hand_computed () =
  let w = Window.create ~half_life_us:100. ~pairs:[| (0, 1); (1, 2) |] in
  Window.observe w ~at_us:0. ~caller:0 ~callee:1 ~bytes:8;
  (* One half-life later the weight is exactly 1/2 (2^(-dt/h) is exact
     at powers of two). *)
  check_bits "one half-life" 0.5 (Window.counts_at w ~now_us:100.).(0);
  check_bits "two half-lives" 0.25 (Window.counts_at w ~now_us:200.).(0);
  check_bits "bytes decay too" 2. (Window.bytes_at w ~now_us:200.).(0);
  (* A second observation folds in on top of the decayed first. *)
  Window.observe w ~at_us:100. ~caller:1 ~callee:0 ~bytes:0;
  check_bits "1/2 + 1 at the bump" 1.5 (Window.counts_at w ~now_us:100.).(0);
  check_bits "untouched slot stays zero" 0. (Window.counts_at w ~now_us:100.).(1);
  Alcotest.(check int) "observations counted" 2 (Window.observed w);
  Alcotest.(check int) "only the sized one counted" 1 (Window.byte_observed w);
  (* Reads are pure: asking at a later time does not mutate. *)
  let before = (Window.counts_at w ~now_us:100.).(0) in
  ignore (Window.counts_at w ~now_us:1_000.);
  check_bits "snapshot did not mutate" before (Window.counts_at w ~now_us:100.).(0)

let test_window_extras_and_signature () =
  let w = Window.create ~half_life_us:64. ~pairs:[| (0, 1) |] in
  Window.observe w ~at_us:0. ~caller:0 ~callee:1 ~bytes:10;
  (* A pair outside the creation-time set accumulates on the side and
     surfaces in the signature and totals. *)
  Window.observe w ~at_us:0. ~caller:5 ~callee:3 ~bytes:30;
  Alcotest.(check int) "one extra pair" 1 (Window.extra_pairs w);
  check_bits "total mass" 2. (Window.total_at w ~now_us:0.);
  check_bits "byte total" 40. (Window.byte_total_at w ~now_us:0.);
  let entries = Drift.entries (Window.signature_at w ~now_us:0.) in
  Alcotest.(check int) "both pairs in signature" 2 (List.length entries);
  Alcotest.(check bool) "extra normalized to (min,max)" true
    (List.mem_assoc (3, 5) entries);
  (* The byte signature weights the same pairs by bytes. *)
  let bytes = Drift.entries (Window.byte_signature_at w ~now_us:0.) in
  check_bits "slot bytes" 10. (List.assoc (0, 1) bytes);
  check_bits "extra bytes" 30. (List.assoc (3, 5) bytes)

let test_window_rejects_bad_args () =
  Alcotest.(check bool) "non-positive half-life" true
    (try
       ignore (Window.create ~half_life_us:0. ~pairs:[||]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "duplicate pair (unordered)" true
    (try
       ignore (Window.create ~half_life_us:1. ~pairs:[| (0, 1); (1, 0) |]);
       false
     with Invalid_argument _ -> true)

(* --- Tap ------------------------------------------------------------ *)

let offer_n tap n =
  for i = 1 to n do
    Tap.offer tap ~at_us:(float_of_int i) ~kind:Tap.Call ~caller:0 ~callee:1 ~bytes:i
  done

let test_tap_keep_everything () =
  let sink, read = Tap.collector () in
  let tap = Tap.create sink in
  offer_n tap 5;
  Alcotest.(check int) "offered" 5 (Tap.offered tap);
  Alcotest.(check int) "sampled" 5 (Tap.sampled tap);
  let obs = read () in
  Alcotest.(check int) "all collected" 5 (List.length obs);
  Alcotest.(check bool) "oldest first" true
    (List.map (fun o -> o.Tap.ob_bytes) obs = [ 1; 2; 3; 4; 5 ])

let test_tap_sampling_deterministic () =
  let run () =
    let sink, read = Tap.collector () in
    let tap = Tap.create ~sample_every:4 ~seed:7L sink in
    offer_n tap 400;
    (Tap.offered tap, Tap.sampled tap, List.map (fun o -> o.Tap.ob_bytes) (read ()))
  in
  let o1, s1, obs1 = run () in
  let o2, s2, obs2 = run () in
  Alcotest.(check int) "offered counted" 400 o1;
  Alcotest.(check bool) "roughly 1 in 4" true (s1 > 60 && s1 < 140);
  Alcotest.(check int) "same seed, same count" s1 s2;
  Alcotest.(check bool) "same seed, same picks" true (obs1 = obs2);
  Alcotest.(check int) "offered equal" o1 o2;
  Alcotest.(check int) "sink saw what sampled counted" s1 (List.length obs1)

let test_tap_accept_emit_split () =
  (* accept defers the expensive measurement; an accepted observation
     reaches the sink via emit exactly as offer would deliver it. *)
  let sink, read = Tap.collector () in
  let tap = Tap.create ~sample_every:2 ~seed:3L sink in
  let measured = ref 0 in
  for i = 1 to 100 do
    if Tap.accept tap then begin
      incr measured;
      Tap.emit tap ~at_us:(float_of_int i) ~kind:Tap.Create ~caller:(-1) ~callee:0 ~bytes:i
    end
  done;
  Alcotest.(check int) "offered" 100 (Tap.offered tap);
  Alcotest.(check int) "measurement only for accepted" !measured (Tap.sampled tap);
  Alcotest.(check int) "sink matches" !measured (List.length (read ()))

(* --- Window against the tuple-keyed oracle -------------------------- *)

module Oracle = Window_oracle

(* A random stream over classifications -1..5 into a window whose slots
   are four of their pairs: observations and [add_bytes] interleaved,
   time mostly advancing (sometimes standing still or stepping back),
   pairs outside the slots included. At a few instants every read must
   equal the oracle's bit for bit; [Drift.similarity] sums in its
   tables' iteration order, so equal similarities also pin the order in
   which the signatures were built. *)
let prop_window_matches_oracle =
  let op =
    QCheck.Gen.(
      quad (int_bound 9) (int_range (-1) 5) (int_range (-1) 5) (int_bound 3)
      |> map (fun (kind, a, b, step) -> (kind, a, b, step)))
  in
  QCheck.Test.make ~name:"window reads == tuple-keyed oracle, bit for bit" ~count:300
    (QCheck.make QCheck.Gen.(pair (oneofl [ 64.; 150. ]) (list_size (int_range 0 120) op)))
    (fun (half_life_us, ops) ->
      let pairs = [| (0, 1); (1, 2); (-1, 0); (3, 3) |] in
      let w = Window.create ~half_life_us ~pairs and o = Oracle.create ~half_life_us ~pairs in
      let base =
        Drift.of_weights [ ((0, 1), 3.); ((-1, 0), 1.5); ((2, 4), 0.25); ((5, 5), 2.) ]
      in
      let now = ref 0. in
      let bits a b = Int64.bits_of_float a = Int64.bits_of_float b in
      let same_floats a b = Array.length a = Array.length b && Array.for_all2 bits a b in
      let same_pairs a b =
        List.length a = List.length b
        && List.for_all2 (fun (k, x) (k', y) -> k = k' && bits x y) a b
      in
      let agree now_us =
        let sw = Window.signature_at w ~now_us and so = Oracle.signature_at o ~now_us in
        let bw = Window.byte_signature_at w ~now_us
        and bo = Oracle.byte_signature_at o ~now_us in
        same_floats (Window.counts_at w ~now_us) (Oracle.counts_at o ~now_us)
        && same_floats (Window.bytes_at w ~now_us) (Oracle.bytes_at o ~now_us)
        && same_pairs (Window.extras_at w ~now_us) (Oracle.extras_at o ~now_us)
        && bits (Window.total_at w ~now_us) (Oracle.total_at o ~now_us)
        && bits (Window.byte_total_at w ~now_us) (Oracle.byte_total_at o ~now_us)
        && same_pairs (Drift.entries sw) (Drift.entries so)
        && same_pairs (Drift.entries bw) (Drift.entries bo)
        && bits (Drift.similarity base sw) (Drift.similarity base so)
        && bits (Drift.similarity sw base) (Drift.similarity so base)
        && bits (Drift.similarity sw bw) (Drift.similarity so bo)
        && Window.observed w = Oracle.observed o
        && Window.byte_observed w = Oracle.byte_observed o
        && Window.extra_pairs w = Oracle.extra_pairs o
      in
      List.for_all
        (fun (kind, caller, callee, step) ->
          (now := !now +. match step with 0 -> 0. | 1 -> 17.5 | 2 -> 64. | _ -> -3.);
          let at_us = !now and bytes = (kind * 37) mod 5 * 100 in
          (* A read just before an update at the same instant: no stale
             snapshot may survive the update. *)
          let probe = kind <= 1 || kind = 7 in
          let before = (not probe) || agree at_us in
          if kind < 7 then begin
            Window.observe w ~at_us ~caller ~callee ~bytes;
            Oracle.observe o ~at_us ~caller ~callee ~bytes
          end
          else begin
            Window.add_bytes w ~at_us ~caller ~callee ~bytes;
            Oracle.add_bytes o ~at_us ~caller ~callee ~bytes
          end;
          before && ((not probe) || (agree at_us && agree (at_us +. 100.))))
        ops
      && agree (!now +. 1.))

(* --- Scaled re-pricing through the session -------------------------- *)

let octarine_staged () =
  let app = Suite.find_app "octarine" in
  let image = Adps.instrument app.App.app_image in
  let profiled, _ =
    Adps.profile ~image ~registry:app.App.app_registry
      (App.scenario app "o_oldwp0").App.sc_run
  in
  let session = Adps.analysis_session profiled in
  let net = Net_profiler.exact Network.ethernet_10 in
  (app, profiled, session, net)

let test_ones_scale_is_bit_identical () =
  let _, _, session, net = octarine_staged () in
  let n = Icc_graph.pair_count (Analysis.Session.graph session) in
  let ones = { Icc_graph.sc_messages = Array.make n 1.; sc_bytes = Array.make n 1. } in
  let plain = Analysis.Session.solve session ~net in
  let scaled = Analysis.Session.solve session ~scale:ones ~net in
  Alcotest.(check bool) "same placement" true
    (plain.Analysis.placement = scaled.Analysis.placement);
  check_bits "same predicted comm" plain.Analysis.predicted_comm_us
    scaled.Analysis.predicted_comm_us

let test_scale_length_checked () =
  let _, _, session, net = octarine_staged () in
  let bad = { Icc_graph.sc_messages = [| 1. |]; sc_bytes = [| 1. |] } in
  Alcotest.(check bool) "length mismatch rejected" true
    (try
       ignore (Analysis.Session.solve session ~scale:bad ~net);
       false
     with Invalid_argument _ -> true)

let test_pair_bytes_totals () =
  let _, _, session, _ = octarine_staged () in
  let graph = Analysis.Session.graph session in
  let bytes = Icc_graph.pair_bytes graph in
  Alcotest.(check int) "one cell per pair" (Icc_graph.pair_count graph)
    (Array.length bytes);
  Alcotest.(check bool) "some pair carries bytes" true
    (Array.exists (fun b -> b > 0.) bytes);
  Array.iter
    (fun b -> Alcotest.(check bool) "finite and non-negative" true (Float.is_finite b && b >= 0.))
    bytes

(* --- The watch in a deployed RTE ------------------------------------ *)

let run_deployed ?watch ?loggers (app, profiled, session, net) ids =
  let dist_image, _ = Adps.analyze_with ~session ~image:profiled ~net () in
  let classifier, dist = Option.get (Adps.load_distribution dist_image) in
  let ctx = Coign_com.Runtime.create_ctx app.App.app_registry in
  let wc =
    Option.map
      (fun (threshold, tap) ->
        Rte.watch ~threshold ~check_every:64 ~min_dwell_us:0. ~min_window:16.
          ~half_life_us:750_000. ~sample_every:4 ?tap ~net
          (Analysis.Session.copy session))
      watch
  in
  let rte =
    Rte.install_distributed ?loggers ~classifier
      ~config:
        {
          Rte.dc_factory_policy = Factory.By_classification dist;
          dc_network = Network.ethernet_10;
          dc_jitter = 0.;
          dc_seed = 0x5EEDL;
          dc_faults = None;
          dc_retry = Fault.default_retry;
          dc_fleet = None;
          dc_watch = wc;
        }
      ctx
  in
  List.iter (fun id -> (App.scenario app id).App.sc_run ctx) ids;
  Rte.uninstall rte;
  rte

let test_quiet_watch_leaves_run_bit_identical () =
  (* threshold 0 can never fire (similarity is in [0,1]); the watched
     run must cost exactly what the unwatched one does — observation,
     sampling, and drift checks never touch the virtual clock. *)
  let staged = octarine_staged () in
  let ids = [ "o_oldwp0"; "o_oldwp7" ] in
  let bare = run_deployed staged ids in
  let quiet = run_deployed ~watch:(0., None) staged ids in
  check_bits "comm bits identical" (Rte.comm_us bare) (Rte.comm_us quiet);
  Alcotest.(check int) "remote calls identical" (Rte.remote_calls bare)
    (Rte.remote_calls quiet);
  Alcotest.(check int) "remote bytes identical" (Rte.remote_bytes bare)
    (Rte.remote_bytes quiet);
  let checks =
    List.length (Rte.watch_timeline quiet)
  in
  Alcotest.(check bool) "the watch did check" true (checks > 0);
  Alcotest.(check bool) "and never acted" true
    (List.for_all
       (fun k -> k.Rte.wk_action = Rte.W_steady)
       (Rte.watch_timeline quiet))

let test_attached_tap_streams_without_perturbing () =
  let staged = octarine_staged () in
  let ids = [ "o_oldwp0" ] in
  let detached = run_deployed ~watch:(0., None) staged ids in
  let sink, read = Tap.collector () in
  let tapped = run_deployed ~watch:(0., Some sink) staged ids in
  check_bits "comm bits identical" (Rte.comm_us detached) (Rte.comm_us tapped);
  let obs = read () in
  let offered, sampled = Option.get (Rte.watch_tap_counts tapped) in
  Alcotest.(check bool) "observations streamed" true (obs <> []);
  Alcotest.(check int) "sink saw every sampled observation" sampled (List.length obs);
  Alcotest.(check bool) "sampling is a strict subsample" true (sampled < offered);
  List.iter
    (fun o ->
      Alcotest.(check bool) "bytes measured for sampled calls" true (o.Tap.ob_bytes >= 0);
      Alcotest.(check bool) "virtual timestamps non-negative" true (o.Tap.ob_at_us >= 0.))
    obs;
  Alcotest.(check bool) "timestamps non-decreasing" true
    (fst
       (List.fold_left
          (fun (ok, prev) o -> (ok && o.Tap.ob_at_us >= prev, o.Tap.ob_at_us))
          (true, 0.) obs))

let test_watch_emits_drift_events () =
  (* A usage shift under an eager watch must surface as loggable
     Drift_detected / Repartitioned events with consistent payloads. *)
  let staged = octarine_staged () in
  let recorder, events = Logger.event_recorder () in
  let _ =
    run_deployed ~watch:(0.90, None) ~loggers:[ recorder ] staged
      [ "o_oldwp0"; "o_oldwp7"; "o_oldwp7"; "o_oldwp7" ]
  in
  let evs = events () in
  let detections =
    List.filter_map
      (function
        | Event.Drift_detected { similarity; threshold; window_pairs; _ } ->
            Some (similarity, threshold, window_pairs)
        | _ -> None)
      evs
  in
  let recuts =
    List.filter_map
      (function
        | Event.Repartitioned { at_us; from_servers; to_servers; migrated; _ } ->
            Some (at_us, from_servers, to_servers, migrated)
        | _ -> None)
      evs
  in
  Alcotest.(check bool) "drift detected" true (detections <> []);
  Alcotest.(check bool) "placement switched" true (recuts <> []);
  List.iter
    (fun (similarity, threshold, window_pairs) ->
      Alcotest.(check bool) "similarity below threshold" true (similarity < threshold);
      Alcotest.(check bool) "window pairs positive" true (window_pairs > 0))
    detections;
  List.iter
    (fun (at_us, from_servers, to_servers, migrated) ->
      Alcotest.(check bool) "timestamped on the virtual clock" true (at_us >= 0);
      Alcotest.(check bool) "server counts sane" true (from_servers >= 0 && to_servers >= 0);
      Alcotest.(check bool) "migration count sane" true (migrated >= 0))
    recuts

(* --- Watchsim: the closed loop -------------------------------------- *)

let watchsim_shift ?pool () =
  let app = Suite.find_app "octarine" in
  let image = Adps.instrument app.App.app_image in
  Coign_sim.Watchsim.run ?pool ~profile_mix:[ "o_oldwp0" ]
    ~phases:
      [
        [ "o_oldwp0" ];
        [ "o_oldwp7"; "o_oldwp7"; "o_oldwp7" ];
        [ "o_oldwp7"; "o_oldwp7"; "o_oldwp7" ];
      ]
    ~image ~network:Network.ethernet_10 ()

let test_watchsim_converges_to_oracle () =
  let r = watchsim_shift () in
  let open Coign_sim.Watchsim in
  Alcotest.(check bool) "drift detected" true (r.w_drift_detections > 0);
  Alcotest.(check bool) "repartitioned at least once" true (r.w_repartitions > 0);
  Alcotest.(check bool) "instances migrated live" true (r.w_migrations > 0);
  Alcotest.(check bool) "converged to the oracle cut" true r.w_converged;
  Alcotest.(check bool) "steady-state comm reduced" true
    (r.w_steady_watched_us < r.w_steady_stale_us);
  (* The first (matching-usage) phase must not be disturbed. *)
  (match r.w_phase_stats with
  | first :: _ ->
      check_bits "phase 1 untouched" first.ph_stale_comm_us first.ph_watched_comm_us
  | [] -> Alcotest.fail "no phases");
  Alcotest.(check bool) "tap sampled a strict subset" true
    (r.w_tap_sampled > 0 && r.w_tap_sampled < r.w_tap_offered)

let test_watchsim_jobs_deterministic () =
  let sequential = watchsim_shift () in
  let pool = Parallel.create ~domains:3 () in
  let parallel = watchsim_shift ~pool () in
  Parallel.shutdown pool;
  Alcotest.(check string) "byte-identical across domains"
    (Jsonu.to_string (Coign_sim.Watchsim.to_json sequential))
    (Jsonu.to_string (Coign_sim.Watchsim.to_json parallel))

let test_watchsim_json_parses () =
  let r = watchsim_shift () in
  let j = Jsonu.parse_exn (Jsonu.to_string (Coign_sim.Watchsim.to_json r)) in
  let member k = Jsonu.member k j in
  Alcotest.(check bool) "converged present" true (member "converged" <> None);
  Alcotest.(check bool) "timeline present" true (member "timeline" <> None);
  Alcotest.(check bool) "phases present" true (member "phases" <> None)

let suite =
  [
    Alcotest.test_case "window decay hand computed" `Quick test_window_decay_hand_computed;
    Alcotest.test_case "window extras and signatures" `Quick
      test_window_extras_and_signature;
    Alcotest.test_case "window rejects bad args" `Quick test_window_rejects_bad_args;
    QCheck_alcotest.to_alcotest prop_window_matches_oracle;
    Alcotest.test_case "tap keeps everything by default" `Quick test_tap_keep_everything;
    Alcotest.test_case "tap sampling deterministic" `Quick test_tap_sampling_deterministic;
    Alcotest.test_case "tap accept/emit split" `Quick test_tap_accept_emit_split;
    Alcotest.test_case "ones scale bit-identical to unscaled" `Quick
      test_ones_scale_is_bit_identical;
    Alcotest.test_case "scale length checked" `Quick test_scale_length_checked;
    Alcotest.test_case "pair bytes totals" `Quick test_pair_bytes_totals;
    Alcotest.test_case "quiet watch leaves run bit-identical" `Quick
      test_quiet_watch_leaves_run_bit_identical;
    Alcotest.test_case "attached tap streams without perturbing" `Quick
      test_attached_tap_streams_without_perturbing;
    Alcotest.test_case "watch emits drift events" `Quick test_watch_emits_drift_events;
    Alcotest.test_case "watchsim converges to oracle" `Quick
      test_watchsim_converges_to_oracle;
    Alcotest.test_case "watchsim jobs deterministic" `Quick
      test_watchsim_jobs_deterministic;
    Alcotest.test_case "watchsim json parses" `Quick test_watchsim_json_parses;
  ]
