(* Fully automatic distribution optimization (paper §6).

   "In the future, Coign could automatically decide when usage differs
   significantly from profiled scenarios and silently enable profiling
   to re-optimize the distribution."

   This example closes that loop end to end:

   1. Octarine is profiled on text documents and distributed for them.
   2. The user's behaviour changes: they start working with large
      tables. The lightweight distributed runtime's message counters
      notice the usage signature no longer matches the profile.
   3. Coign silently re-profiles the new usage, re-cuts the graph, and
      installs the new distribution — cutting communication time that
      the stale distribution was leaving on the table.

   Run: dune exec examples/auto_repartition.exe *)

open Coign_util
open Coign_netsim
open Coign_core
open Coign_apps

let network = Network.ethernet_10

let run_distributed image (app : App.t) (sc : App.scenario) =
  (* One "day" of usage under the installed distribution; returns the
     stats and the runtime's lightweight message counters. *)
  let classifier, distribution = Option.get (Adps.load_distribution image) in
  let ctx = Coign_com.Runtime.create_ctx app.App.app_registry in
  let rte =
    Rte.install_distributed ~classifier
      ~config:
        {
          Rte.dc_factory_policy = Factory.By_classification distribution;
          dc_network = network;
          dc_jitter = 0.015;
          dc_seed = 0xDA7L;
          dc_faults = None;
          dc_retry = Fault.default_retry;
          dc_fleet = None;
          dc_watch = None;
        }
      ctx
  in
  sc.App.sc_run ctx;
  Rte.uninstall rte;
  (Rte.comm_us rte /. 1e6, Drift.of_counts (Rte.call_counts rte))

let profile_and_cut (app : App.t) (sc : App.scenario) =
  let image = Adps.instrument app.App.app_image in
  let image, _ = Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run in
  (* The session (abstract graph + constraint edges) belongs to the new
     profile; a production repartitioner would keep it and re-cut
     whenever the network profile moves, without re-deriving stage 1. *)
  let session = Adps.analysis_session image in
  let net = Net_profiler.profile (Prng.create 21L) network in
  let image, dist = Adps.analyze_with ~session ~image ~net () in
  (image, dist)

let () =
  print_endline "Automatic re-optimization when usage drifts (paper section 6)";
  print_endline "==============================================================";
  let app = Octarine.app in
  let text_work = App.scenario app "o_oldwp0" in
  let table_work = App.scenario app "o_oldtb3" in

  (* Day 0: train on the user's current (text) usage. *)
  let image, dist = profile_and_cut app text_work in
  let profile_sig =
    match Adps.load_profile image with
    | Some (_, icc) -> Drift.of_icc icc
    | None -> (
        (* the analyzed image dropped raw profiles; rebuild from a
           profiling run *)
        let image2 = Adps.instrument app.App.app_image in
        let _, _, rte = Adps.profile_results ~image:image2 ~registry:app.App.app_registry text_work.App.sc_run in
        Drift.of_icc (Rte.icc rte))
  in
  Printf.printf "\nDay 0: profiled text editing; %d classifications on the server.\n"
    dist.Analysis.server_count;

  (* Days 1-2: the user still edits text — the distribution fits. *)
  let comm1, sig1 = run_distributed image app text_work in
  Printf.printf "Day 1 (text):  comm %.3f s, usage similarity %.2f -> %s\n" comm1
    (Drift.similarity profile_sig sig1)
    (if Drift.drifted ~profile:profile_sig sig1 then "DRIFT" else "ok");

  (* Day 3: the user switches to big table documents. The stale
     text-optimized distribution still runs, but poorly, and the
     counters notice. *)
  let comm3, sig3 = run_distributed image app table_work in
  Printf.printf "Day 3 (tables): comm %.3f s, usage similarity %.2f -> %s\n" comm3
    (Drift.similarity profile_sig sig3)
    (if Drift.drifted ~profile:profile_sig sig3 then "DRIFT detected" else "ok");

  (* Coign silently re-profiles the drifted usage and re-cuts. *)
  print_endline "\nre-profiling the new usage and re-cutting the ICC graph...";
  let image', dist' = profile_and_cut app table_work in
  let comm4, _ = run_distributed image' app table_work in
  Printf.printf
    "Day 4 (tables, re-optimized): comm %.3f s (%d classifications on the server)\n" comm4
    dist'.Analysis.server_count;
  Printf.printf
    "\nThe stale distribution paid %.3f s per session; the re-optimized one pays %.3f s\n\
     — %.0f%% of the drift-induced cost recovered without user involvement.\n"
    comm3 comm4
    ((1. -. (comm4 /. comm3)) *. 100.)
