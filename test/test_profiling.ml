(* Profiling-mode interception: the quiet path (no loggers) must record
   exactly what the listening path records, the profile an image
   accumulates is pinned by a golden file, and the interception cost per
   call is bounded in allocated words. *)

open Coign_core
open Coign_apps
module Config_record = Coign_image.Config_record
module Binary_image = Coign_image.Binary_image

let apps = [ "octarine"; "photodraw"; "benefits"; "ingest" ]
let network = Coign_netsim.Network.ethernet_10

let each_scenario f =
  List.iter
    (fun name ->
      let app = Suite.find_app name in
      List.iter (fun sc -> f app sc) (App.non_bigone app))
    apps

let inst_comm_view ic =
  ( Inst_comm.message_count ic,
    Inst_comm.total_bytes ic,
    List.map (fun i -> (i, Inst_comm.peers ic i)) (Inst_comm.instances ic) )

let test_quiet_matches_listening () =
  each_scenario (fun app (sc : App.scenario) ->
      let run ?loggers () =
        let _, _, rte =
          Adps.profile_results ?loggers ~image:(Adps.instrument app.App.app_image)
            ~registry:app.App.app_registry sc.App.sc_run
        in
        rte
      in
      let quiet = run () in
      let recorder, events = Logger.event_recorder () in
      let listening = run ~loggers:[ recorder ] () in
      let what s = sc.App.sc_id ^ ": " ^ s in
      let icc_text rte = Icc.encode (Rte.icc rte) in
      Alcotest.(check string) (what "icc") (icc_text quiet) (icc_text listening);
      Alcotest.(check bool) (what "inst comm") true
        (inst_comm_view (Rte.inst_comm quiet) = inst_comm_view (Rte.inst_comm listening));
      Alcotest.(check bool) (what "call counts") true
        (Rte.call_counts quiet = Rte.call_counts listening);
      Alcotest.(check bool) (what "instance classifications") true
        (Rte.instance_classifications quiet = Rte.instance_classifications listening);
      (* The listening path's events, summarized by the profiling
         logger, are the profile the RTE recorded directly. *)
      let icc = Icc.create () and inst_comm = Inst_comm.create () in
      let replay = Logger.profiling ~icc ~inst_comm in
      List.iter replay.Logger.log (events ());
      Alcotest.(check string) (what "replayed icc") (icc_text quiet) (Icc.encode icc);
      Alcotest.(check bool) (what "replayed inst comm") true
        (inst_comm_view inst_comm = inst_comm_view (Rte.inst_comm quiet)))

(* The configuration record after profiling every non-bigone octarine
   scenario from a fresh instrument: classifier state and ICC text. *)
let profile_text () =
  let app = Suite.find_app "octarine" in
  let image =
    List.fold_left
      (fun image (sc : App.scenario) ->
        fst (Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run))
      (Adps.instrument app.App.app_image) (App.non_bigone app)
  in
  let config = Option.get image.Binary_image.config in
  let entry k = Option.get (Config_record.entry config k) in
  "# classifier\n" ^ entry Config_keys.classifier ^ "# icc\n" ^ entry Config_keys.icc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_profile_golden () =
  let golden = "golden/profile_octarine.txt" in
  if not (Sys.file_exists golden) then Alcotest.skip ()
  else Alcotest.(check string) "octarine profile golden" (read_file golden) (profile_text ())

(* Minor words allocated by [f]. *)
let words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* The interception path's own allocation, per intercepted call: a
   profiled run minus a bare run of the same scenario, over every
   non-bigone scenario of the four applications (43,711 calls; the bare
   runs allocate 54.6 words per call). Measured figures: 173 extra
   words per call with tuple-keyed generic tables, Printf descriptors
   and an event per call; 91 with int-keyed tables and direct recording
   alone; 36 with dense arrays, closure-free probes, compact buckets and
   scratch-buffer descriptors. *)
let test_profiled_call_allocation () =
  let bare = ref 0. and profiled = ref 0. and calls = ref 0 in
  each_scenario (fun app (sc : App.scenario) ->
      let registry = app.App.app_registry in
      let config = Option.get (Adps.instrument app.App.app_image).Binary_image.config in
      let kind = Option.get (Classifier.kind_of_name (Config_record.classifier_name config)) in
      let stack_depth = Config_record.stack_depth config in
      sc.App.sc_run (Coign_com.Runtime.create_ctx registry);
      bare := !bare +. words (fun () -> sc.App.sc_run (Coign_com.Runtime.create_ctx registry));
      let ctx = Coign_com.Runtime.create_ctx registry in
      let classifier = Classifier.create ?stack_depth kind in
      let rte = ref None in
      profiled :=
        !profiled
        +. words (fun () ->
               let r = Rte.install_profiling ~classifier ctx in
               sc.App.sc_run ctx;
               Rte.uninstall r;
               rte := Some r);
      calls := !calls + Rte.intercepted_calls (Option.get !rte));
  let extra = (!profiled -. !bare) /. float_of_int !calls in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f extra minor words per profiled call (%d calls)" extra !calls)
    true (extra < 60.)

(* The distributed interception path's own allocation, per intercepted
   call: an executed run minus a bare run of the same scenario, over
   every non-bigone scenario of the four applications, each analyzed
   from a profile of all of them. A quiet watch (threshold 0: drift
   checks run, no re-cut fires) adds the window, the tap and the drift
   checks. Before frames became ints and the watch's observe stopped
   allocating, the same measurement read 32.8 extra words per call for
   retry-only runs and 103.8 for quiet-watch runs; now 14.2 and 27.7. *)
let test_distributed_call_allocation () =
  let net = Coign_netsim.Net_profiler.profile (Coign_util.Prng.create 5L) network in
  let bare = ref 0. and retry = ref 0. and quiet = ref 0. and calls = ref 0 in
  List.iter
    (fun name ->
      let app = Suite.find_app name in
      let registry = app.App.app_registry in
      let profiled =
        List.fold_left
          (fun image (sc : App.scenario) -> fst (Adps.profile ~image ~registry sc.App.sc_run))
          (Adps.instrument app.App.app_image) (App.non_bigone app)
      in
      let session = Adps.analysis_session profiled in
      let image, _ = Adps.analyze_with ~session ~image:profiled ~net () in
      List.iter
        (fun (sc : App.scenario) ->
          let run = sc.App.sc_run in
          let execute ?watch () = Adps.execute ~image ~registry ~network ?watch run in
          ignore (execute ());
          bare := !bare +. words (fun () -> run (Coign_com.Runtime.create_ctx registry));
          retry := !retry +. words (fun () -> calls := !calls + (execute ()).Adps.es_intercepted);
          quiet :=
            !quiet
            +. words (fun () ->
                   let watch = Rte.watch ~threshold:0. ~net (Analysis.Session.copy session) in
                   ignore (execute ~watch ())))
        (App.non_bigone app))
    apps;
  let per_call w = (w -. !bare) /. float_of_int !calls in
  let bound what w limit =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.1f extra minor words per call (%d calls)" what (per_call w) !calls)
      true
      (per_call w <= limit)
  in
  bound "retry" !retry 22.;
  bound "quiet watch" !quiet 50.

let suite =
  [
    Alcotest.test_case "quiet path records what the listening path records" `Slow
      test_quiet_matches_listening;
    Alcotest.test_case "octarine profile golden" `Quick test_profile_golden;
    Alcotest.test_case "profiled call allocation bound" `Quick test_profiled_call_allocation;
    Alcotest.test_case "distributed call allocation bound" `Quick
      test_distributed_call_allocation;
  ]
