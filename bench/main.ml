(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (§4) plus the §3.2 overhead claims and the §4.4
   network-adaptivity argument, and runs bechamel microbenchmarks of
   the core kernels.

   Usage: dune exec bench/main.exe [-- section ...] [--json FILE]
   Sections: table1 table2 table3 fig4 fig5 fig6 fig7 fig8 table4
             table5 overhead adaptive multiway drift whatif session
             micro faultsim obs resilience verify load watch fleet
             (default: all).

   --json FILE additionally writes the machine-readable results of the
   sections that ran (micro estimates, the session-vs-fresh analysis
   comparison, table 4/5 rows) so successive runs leave a perf
   trajectory (BENCH_*.json). *)

open Coign_util
open Coign_core
open Coign_apps
open Coign_sim

let network = Coign_netsim.Network.ethernet_10

let note fmt = Printf.printf fmt

(* Machine-readable section results, accumulated as JSON fragments in
   run order by the sections that produce them. *)
let json_sections : (string * string) list ref = ref []

let add_json name fragment = json_sections := (name, fragment) :: !json_sections

let section_header title paper =
  Printf.printf "\n%s\n%s\n(paper reference: %s)\n" title (String.make (String.length title) '=') paper

(* ------------------------------------------------------------------ *)
(* Table 1: the scenario suite                                         *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section_header "Table 1: Profiling Scenarios" "Table 1";
  let t = Tablefmt.create [ ("Scenario", Tablefmt.Left); ("Description", Tablefmt.Left) ] in
  List.iter (fun (_, id, desc) -> Tablefmt.add_row t [ id; desc ]) Suite.table1;
  print_string (Tablefmt.render t)

(* ------------------------------------------------------------------ *)
(* Tables 2 and 3: classifier accuracy                                 *)
(* ------------------------------------------------------------------ *)

let classifier_row (r : Classifier_eval.row) =
  [
    (match r.Classifier_eval.cr_depth with
    | None -> Classifier.kind_description r.Classifier_eval.cr_kind
    | Some d -> string_of_int d);
    string_of_int r.Classifier_eval.cr_profiled_classifications;
    string_of_int r.Classifier_eval.cr_new_in_bigone;
    Tablefmt.cell_float ~decimals:1 r.Classifier_eval.cr_avg_instances;
    Tablefmt.cell_float ~decimals:3 r.Classifier_eval.cr_avg_correlation;
  ]

let table2 () =
  section_header "Table 2: Classifier Accuracy (Octarine)" "Table 2";
  let t =
    Tablefmt.create
      [
        ("Instance Classifier", Tablefmt.Left); ("Profiled Cls.", Tablefmt.Right);
        ("New (bigone) Cls.", Tablefmt.Right); ("Inst./Cls.", Tablefmt.Right);
        ("Avg. Correlation", Tablefmt.Right);
      ]
  in
  List.iter (fun r -> Tablefmt.add_row t (classifier_row r)) (Classifier_eval.table2 Octarine.app);
  print_string (Tablefmt.render t);
  note
    "Expected shape: Incremental all-new/worst correlation; IFCB most\n\
     classifications; ST fewest and least accurate of the context family.\n"

let table3 () =
  section_header "Table 3: IFCB Accuracy as a Function of Stack Depth (Octarine)" "Table 3";
  let t =
    Tablefmt.create
      [
        ("Stack-Walk Depth", Tablefmt.Left); ("Profiled Cls.", Tablefmt.Right);
        ("New (bigone) Cls.", Tablefmt.Right); ("Inst./Cls.", Tablefmt.Right);
        ("Avg. Correlation", Tablefmt.Right);
      ]
  in
  let rows = Classifier_eval.table3 Octarine.app in
  List.iteri
    (fun i r ->
      let row = classifier_row r in
      let row = if i = List.length rows - 1 then "Complete" :: List.tl row else row in
      Tablefmt.add_row t row)
    rows;
  print_string (Tablefmt.render t);
  note "Expected shape: classifications and correlation rise with depth, then saturate.\n"

(* ------------------------------------------------------------------ *)
(* Figures 4-8: distributions                                          *)
(* ------------------------------------------------------------------ *)

let distribution_figure ~title ~paper ~expect app (sc : App.scenario) =
  section_header title paper;
  let row = Experiment.run_scenario ~network app sc in
  Printf.printf
    "Coign places %d of %d component instances on the server\n\
     (%d of %d instance classifications; predicted communication %.3f s).\n"
    row.Experiment.server_instances row.Experiment.total_instances
    row.Experiment.server_classifications row.Experiment.node_count
    (row.Experiment.distribution.Analysis.predicted_comm_us /. 1e6);
  let t =
    Tablefmt.create
      [ ("Server-side component class", Tablefmt.Left); ("Classifications", Tablefmt.Right) ]
  in
  List.iter
    (fun (cls, n) -> Tablefmt.add_row t [ cls; string_of_int n ])
    (Experiment.server_class_histogram row);
  print_string (Tablefmt.render t);
  note "%s\n" expect

let fig4 () =
  distribution_figure ~title:"Figure 4: PhotoDraw Distribution" ~paper:"Figure 4"
    ~expect:
      "Paper: 8 of 295 on the server (the document reader and seven property\n\
       sets); sprite caches held to the client by non-distributable interfaces."
    Photodraw.app
    (App.scenario Photodraw.app "p_oldmsr")

let fig5 () =
  distribution_figure ~title:"Figure 5: Octarine Distribution (35-page text document)"
    ~paper:"Figure 5"
    ~expect:
      "Paper: 2 of 458 on the server (the document reader and the text-properties\n\
       component); the GUI forest stays on the client."
    Octarine.app Octarine.figure5

let fig6 () =
  section_header "Figure 6: Corporate Benefits Distribution" "Figure 6";
  let app = Benefits.app in
  let sc = App.scenario app "b_vueone" in
  let row = Experiment.run_scenario ~network app sc in
  let default =
    Adps.execute_with_policy ~registry:app.App.app_registry
      ~classifier:(Classifier.create Classifier.Ifcb)
      ~policy:(Factory.By_class app.App.app_default_placement) ~network sc.App.sc_run
  in
  Printf.printf
    "Of %d component instances, Coign places %d on the middle tier where the\n\
     programmer placed %d (paper: 135 vs 187 of 196). Communication drops by %s.\n"
    row.Experiment.total_instances row.Experiment.server_instances
    default.Adps.es_server_instances
    (Tablefmt.cell_pct row.Experiment.savings);
  let t =
    Tablefmt.create
      [ ("Middle-tier component class (Coign)", Tablefmt.Left); ("Classifications", Tablefmt.Right) ]
  in
  List.iter
    (fun (cls, n) -> Tablefmt.add_row t [ cls; string_of_int n ])
    (Experiment.server_class_histogram row);
  print_string (Tablefmt.render t);
  note
    "Expected shape: caches and their row sets move to the client; the business\n\
     logic and ODBC gateway stay on the middle tier.\n"

let fig7 () =
  distribution_figure ~title:"Figure 7: Octarine with Multi-page Table" ~paper:"Figure 7"
    ~expect:"Paper: a single component of 476 on the server for the 5-page table."
    Octarine.app
    (App.scenario Octarine.app "o_oldtb0")

let fig8 () =
  distribution_figure ~title:"Figure 8: Octarine with Tables and Text" ~paper:"Figure 8"
    ~expect:
      "Paper: 281 of 786 on the server — the page-placement negotiation moves the\n\
       text/table cluster beside the document data."
    Octarine.app
    (App.scenario Octarine.app "o_oldbth")

(* ------------------------------------------------------------------ *)
(* Tables 4 and 5: scenario sweep                                      *)
(* ------------------------------------------------------------------ *)

(* Scenario rows are independent end-to-end pipeline runs with fixed
   seeds; the domain pool runs them concurrently and run_suite returns
   them in suite order, identical to the sequential path. *)
let sweep = lazy (Experiment.run_suite ~network ~pool:(Parallel.default ()) Suite.all)

let table4 () =
  section_header "Table 4: Reduction in Communication Time" "Table 4";
  let t =
    Tablefmt.create
      [
        ("Scenario", Tablefmt.Left); ("Default (s)", Tablefmt.Right);
        ("Coign (s)", Tablefmt.Right); ("Savings", Tablefmt.Right);
      ]
  in
  List.iter
    (fun (r : Experiment.row) ->
      Tablefmt.add_row t
        [
          r.Experiment.row_id;
          Tablefmt.cell_float (r.Experiment.default_comm_us /. 1e6);
          Tablefmt.cell_float (r.Experiment.coign_comm_us /. 1e6);
          Tablefmt.cell_pct r.Experiment.savings;
        ])
    (Lazy.force sweep);
  print_string (Tablefmt.render t);
  add_json "table4"
    (Printf.sprintf "[%s]"
       (String.concat ", "
          (List.map
             (fun (r : Experiment.row) ->
               Printf.sprintf
                 "{\"scenario\": \"%s\", \"default_comm_us\": %.17g, \"coign_comm_us\": \
                  %.17g, \"savings\": %.17g}"
                 (Jsonu.escape r.Experiment.row_id) r.Experiment.default_comm_us
                 r.Experiment.coign_comm_us r.Experiment.savings)
             (Lazy.force sweep))));
  note
    "Expected shape: Coign never worse than the default; ~99%% on large table\n\
     documents, ~95%% on the 208-page text document, ~0%% on small/new documents,\n\
     ~68%% on mixed text+tables, 5-35%% for PhotoDraw and Benefits.\n"

let table5 () =
  section_header "Table 5: Accuracy of Prediction Models" "Table 5";
  let t =
    Tablefmt.create
      [
        ("Scenario", Tablefmt.Left); ("Predicted (s)", Tablefmt.Right);
        ("Measured (s)", Tablefmt.Right); ("Error", Tablefmt.Right);
      ]
  in
  let worst = ref 0. in
  List.iter
    (fun (r : Experiment.row) ->
      worst := Float.max !worst (Float.abs r.Experiment.prediction_error);
      Tablefmt.add_row t
        [
          r.Experiment.row_id;
          Tablefmt.cell_float (r.Experiment.predicted_total_us /. 1e6);
          Tablefmt.cell_float (r.Experiment.measured_total_us /. 1e6);
          Printf.sprintf "%+.0f%%" (r.Experiment.prediction_error *. 100.);
        ])
    (Lazy.force sweep);
  print_string (Tablefmt.render t);
  add_json "table5"
    (Printf.sprintf "[%s]"
       (String.concat ", "
          (List.map
             (fun (r : Experiment.row) ->
               Printf.sprintf
                 "{\"scenario\": \"%s\", \"predicted_total_us\": %.17g, \
                  \"measured_total_us\": %.17g, \"prediction_error\": %.17g}"
                 (Jsonu.escape r.Experiment.row_id) r.Experiment.predicted_total_us
                 r.Experiment.measured_total_us r.Experiment.prediction_error)
             (Lazy.force sweep))));
  note "Worst absolute error: %.1f%% (paper: none above 8%%).\n" (!worst *. 100.)

(* ------------------------------------------------------------------ *)
(* §3.2 overhead                                                       *)
(* ------------------------------------------------------------------ *)

let overhead () =
  section_header "Instrumentation Overhead" "Sec. 3.2 (<=85% profiling, <3% distribution)";
  let t =
    Tablefmt.create
      [
        ("Scenario", Tablefmt.Left); ("Calls", Tablefmt.Right);
        ("Prof. us/call", Tablefmt.Right); ("Distrib. us/call", Tablefmt.Right);
        ("Prof. overhead", Tablefmt.Right); ("Distrib. overhead", Tablefmt.Right);
      ]
  in
  List.iter
    (fun id ->
      let app, sc = Suite.find_scenario id in
      let r = Overhead.measure app sc in
      Tablefmt.add_row t
        [
          id;
          string_of_int r.Overhead.intercepted_calls;
          Tablefmt.cell_float ~decimals:2 r.Overhead.profiling_us_per_call;
          Tablefmt.cell_float ~decimals:2 r.Overhead.distributed_us_per_call;
          Tablefmt.cell_pct r.Overhead.profiling_overhead;
          Tablefmt.cell_pct r.Overhead.distributed_overhead;
        ])
    [ "o_oldwp7"; "o_oldtb3"; "p_oldmsr"; "b_bigone" ];
  print_string (Tablefmt.render t);
  note
    "Overheads are relative to modeled application time (wall-clock plus the\n\
     compute the components charge), mirroring the paper's percentages over\n\
     real application compute. Expected shape: profiling far heavier per call\n\
     than distribution-time interception.\n"

(* ------------------------------------------------------------------ *)
(* §4.4 adaptivity                                                     *)
(* ------------------------------------------------------------------ *)

let adaptive () =
  section_header "Changing Scenarios and Distributions" "Sec. 4.4";
  List.iter
    (fun id ->
      let app, sc = Suite.find_scenario id in
      Printf.printf "\n%s re-analyzed against each network:\n" id;
      let t =
        Tablefmt.create
          [
            ("Network", Tablefmt.Left); ("Server classifications", Tablefmt.Right);
            ("Predicted comm (s)", Tablefmt.Right);
          ]
      in
      List.iter
        (fun (a : Experiment.adaptive_row) ->
          Tablefmt.add_row t
            [
              a.Experiment.ar_network;
              string_of_int a.Experiment.ar_server_classifications;
              Tablefmt.cell_float (a.Experiment.ar_predicted_comm_us /. 1e6);
            ])
        (Experiment.across_networks app sc);
      print_string (Tablefmt.render t))
    [ "o_oldbth"; "p_oldmsr" ];
  note
    "\nExpected shape: predicted communication falls monotonically with faster\n\
     networks, and the chosen distribution itself shifts as the\n\
     bandwidth-to-latency tradeoff moves.\n"

(* ------------------------------------------------------------------ *)
(* Two-stage engine: session reprice+recut vs fresh analysis           *)
(* ------------------------------------------------------------------ *)

let session_bench () =
  section_header "Two-Stage Engine: Session Reprice+Recut vs Fresh Analysis"
    "Sec. 4.4 adaptivity; ISSUE 2 acceptance criterion";
  let app = Photodraw.app in
  let sc = App.scenario app "p_oldmsr" in
  let image = Adps.instrument app.App.app_image in
  let image, stats = Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run in
  let classifier, icc =
    match Adps.load_profile image with Some p -> p | None -> assert false
  in
  let constraints =
    Constraints.merge (Constraints.of_image image) (Adps.static_constraints image)
  in
  let points = 24 in
  let nets =
    List.map
      (fun net -> Coign_netsim.Net_profiler.profile (Prng.create 11L) net)
      (Coign_netsim.Network.geometric_sweep ~points
         ~from_net:Coign_netsim.Network.isdn_128 ~to_net:Coign_netsim.Network.san_1g ())
  in
  Printf.printf
    "PhotoDraw %s profile: %d classifications, %d calls; sweeping %d network points.\n"
    sc.App.sc_id stats.Adps.ps_classifications stats.Adps.ps_calls points;
  let time f =
    let reps = 3 in
    let best = ref infinity in
    let result = ref None in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      let r = f () in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      result := Some r
    done;
    ((match !result with Some r -> r | None -> assert false), !best)
  in
  let fresh_dists, fresh_s =
    time (fun () ->
        List.map (fun net -> Analysis.choose ~classifier ~icc ~constraints ~net ()) nets)
  in
  (* One long-lived session, as an adaptive runtime would hold: the
     first rep warms the per-network cost-table memo, so best-of-three
     measures the steady-state reprice+recut — flat pricing into the
     CSR arena plus an in-place cut, no stage-1 rebuild, no
     Net_profiler.compile. *)
  let session = Analysis.Session.create ~classifier ~icc ~constraints () in
  let session_dists, session_s =
    time (fun () -> List.map (fun net -> Analysis.Session.solve session ~net) nets)
  in
  let identical =
    List.for_all2
      (fun a b -> String.equal (Analysis.encode a) (Analysis.encode b))
      fresh_dists session_dists
  in
  let ratio = fresh_s /. session_s in
  let t =
    Tablefmt.create [ ("Path", Tablefmt.Left); ("Total (ms)", Tablefmt.Right);
                      ("Per point (ms)", Tablefmt.Right) ]
  in
  Tablefmt.add_row t
    [ Printf.sprintf "fresh Analysis.choose x%d" points;
      Tablefmt.cell_float (fresh_s *. 1e3);
      Tablefmt.cell_float ~decimals:3 (fresh_s *. 1e3 /. float_of_int points) ];
  Tablefmt.add_row t
    [ Printf.sprintf "one session, %d x reprice+recut" points;
      Tablefmt.cell_float (session_s *. 1e3);
      Tablefmt.cell_float ~decimals:3 (session_s *. 1e3 /. float_of_int points) ];
  print_string (Tablefmt.render t);
  Printf.printf "speedup: %.2fx; distributions %s\n" ratio
    (if identical then "bit-identical across all points" else "DIFFER (BUG)");
  add_json "session"
    (Printf.sprintf
       "{\"app\": \"photodraw\", \"scenario\": \"%s\", \"points\": %d, \
        \"classifications\": %d, \"fresh_s\": %.17g, \"session_s\": %.17g, \"speedup\": \
        %.17g, \"identical\": %b}"
       (Jsonu.escape sc.App.sc_id) points stats.Adps.ps_classifications fresh_s session_s
       ratio identical);
  if not identical then exit 3;
  note
    "Expected shape: the session path skips the per-network abstract-graph and\n\
     constraint-edge rebuild (stage 1), paying only pricing + cut per point, so\n\
     it beats repeated fresh analysis while producing identical cuts.\n"

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)
(* ------------------------------------------------------------------ *)

let micro () =
  section_header "Microbenchmarks (bechamel)" "Sec. 2 algorithm choice, Sec. 3.2 informer costs";
  let open Bechamel in
  let open Toolkit in
  let make_graph n =
    let rng = Prng.create 77L in
    let g = Coign_flowgraph.Flow_network.create ~n in
    for _ = 1 to n * 4 do
      let a = Prng.int rng n and b = Prng.int rng n in
      Coign_flowgraph.Flow_network.add_undirected g a b ~cap:(1 + Prng.int rng 10_000)
    done;
    g
  in
  let g200 = make_graph 150 in
  let cut_test alg =
    Test.make
      ~name:(Coign_flowgraph.Mincut.algorithm_name alg)
      (Staged.stage (fun () ->
           ignore (Coign_flowgraph.Mincut.min_cut ~algorithm:alg g200 ~s:0 ~t:1)))
  in
  (* Flat-core kernels: compiling the CSR arena from an adjacency
     network, and the session hot loop — rewrite capacities in place,
     reset residuals, cut with preallocated scratch, read the side. *)
  let module R = Coign_flowgraph.Flow_network.Residual in
  let csr_build =
    Test.make ~name:"csr-build"
      (Staged.stage (fun () -> ignore (R.of_network g200)))
  in
  let bench_edges = Array.of_list (Coign_flowgraph.Flow_network.edges g200) in
  let bench_n = Coign_flowgraph.Flow_network.node_count g200 in
  let arena, fwd = R.of_edges ~n:bench_n bench_edges in
  let arena_scratch = Coign_flowgraph.Mincut.scratch arena in
  let side = Array.make bench_n false in
  let side_stack = Array.make bench_n 0 in
  let arena_reprice =
    Test.make ~name:"arena-reprice"
      (Staged.stage (fun () ->
           Array.iteri
             (fun i (_, _, cap) -> R.set_arc_cap arena fwd.(i) cap)
             bench_edges;
           R.reset arena;
           ignore (Coign_flowgraph.Mincut.run arena arena_scratch ~s:0 ~t:1);
           R.min_cut_side_into arena ~s:0 ~seen:side ~stack:side_stack))
  in
  (* Session pricing with and without the memoized bucket-cost table:
     solving against a profile the session has already seen skips
     Net_profiler.compile and the per-size cost table entirely. *)
  let pd = Photodraw.app in
  let pd_sc = App.scenario pd "p_oldmsr" in
  let pd_image = Adps.instrument pd.App.app_image in
  let pd_image, _ = Adps.profile ~image:pd_image ~registry:pd.App.app_registry pd_sc.App.sc_run in
  let pd_session = Adps.analysis_session pd_image in
  let pd_net = Coign_netsim.Net_profiler.profile (Prng.create 11L) network in
  ignore (Analysis.Session.solve pd_session ~net:pd_net);
  let price_memo =
    Test.make ~name:"session-price-memo"
      (Staged.stage (fun () -> ignore (Analysis.Session.solve pd_session ~net:pd_net)))
  in
  let price_compile =
    Test.make ~name:"session-price-compile"
      (Staged.stage (fun () ->
           (* A derived profile is a fresh physical identity, so every
              run misses the memo and pays compile + cost table. *)
           ignore
             (Analysis.Session.solve pd_session
                ~net:(Coign_netsim.Net_profiler.degrade pd_net))))
  in
  let itype =
    Coign_com.Itype.declare "IBench"
      [
        Coign_idl.Idl_type.method_ ~ret:Coign_idl.Idl_type.Blob "m"
          [
            Coign_idl.Idl_type.param "a"
              (Coign_idl.Idl_type.Array
                 (Coign_idl.Idl_type.Struct
                    [ ("x", Coign_idl.Idl_type.Str); ("y", Coign_idl.Idl_type.Int32);
                      ("i", Coign_idl.Idl_type.Iface "IPeer") ]));
          ];
      ]
  in
  let arg =
    Coign_idl.Value.Arr
      (List.init 16 (fun i ->
           Coign_idl.Value.Struct
             [ ("x", Coign_idl.Value.Str (String.make 24 'x')); ("y", Coign_idl.Value.Int i);
               ("i", Coign_idl.Value.Iface_ref i) ]))
  in
  let profiling_informer =
    Test.make ~name:"profiling-informer"
      (Staged.stage (fun () ->
           ignore
             (Informer.measure_call itype ~meth:0 ~ins:[ arg ] ~outs:[ arg ]
                ~ret:(Coign_idl.Value.Blob 2_000))))
  in
  let distribution_informer =
    Test.make ~name:"distribution-informer"
      (Staged.stage (fun () ->
           ignore (Informer.outgoing_handles itype ~meth:0 ~outs:[ arg ] ~ret:Coign_idl.Value.Null)))
  in
  let stack =
    List.init 8 (fun i ->
        Frame.make ~inst:i ~cls:(Printf.sprintf "K%d" i) ~classification:i ~iface:"I"
          ~meth:"m")
  in
  let classifier_test kind =
    let t = Classifier.create kind in
    Test.make
      ~name:("classify-" ^ Classifier.kind_name kind)
      (Staged.stage (fun () -> ignore (Classifier.classify t ~cname:"D" ~stack)))
  in
  let tests =
    Test.make_grouped ~name:"kernels"
      [
        cut_test Coign_flowgraph.Mincut.Relabel_to_front;
        cut_test Coign_flowgraph.Mincut.Edmonds_karp;
        cut_test Coign_flowgraph.Mincut.Dinic;
        csr_build;
        arena_reprice;
        price_memo;
        price_compile;
        profiling_informer;
        distribution_informer;
        classifier_test Classifier.Ifcb;
        classifier_test Classifier.St;
      ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  let t = Tablefmt.create [ ("Kernel", Tablefmt.Left); ("ns/run", Tablefmt.Right) ] in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> rows := (name, est) :: !rows
      | _ -> ())
    results;
  List.iter
    (fun (name, est) -> Tablefmt.add_row t [ name; Tablefmt.cell_float ~decimals:1 est ])
    (List.sort compare !rows);
  print_string (Tablefmt.render t);
  add_json "micro"
    (Printf.sprintf "[%s]"
       (String.concat ", "
          (List.map
             (fun (name, est) ->
               Printf.sprintf "{\"kernel\": \"%s\", \"ns_per_run\": %.17g}"
                 (Jsonu.escape name) est)
             (List.sort compare !rows))));
  note
    "Expected shape: the exact lift-to-front algorithm is Theta(V^3) and trails\n\
     the blocking-flow baselines as graphs grow — affordable only because ICC\n\
     graphs have a few hundred classifications (why the paper could use an exact\n\
     two-way algorithm). The distribution informer is 1-2 orders of magnitude\n\
     cheaper than the profiling informer (the mechanism behind 85%% vs 3%%\n\
     runtime overhead).\n"

(* ------------------------------------------------------------------ *)
(* Extensions the paper anticipates                                    *)
(* ------------------------------------------------------------------ *)

let multiway () =
  section_header "Extension: Three-Machine Distribution (Benefits)"
    "Sec. 2 future work (multi-way cuts)";
  let app = Benefits.app in
  let sc = App.scenario app "b_vueone" in
  let classifier = Classifier.create Classifier.Ifcb in
  let ctx = Coign_com.Runtime.create_ctx app.App.app_registry in
  let rte = Rte.install_profiling ~classifier ctx in
  sc.App.sc_run ctx;
  Rte.uninstall rte;
  let icc = Rte.icc rte in
  let net = Coign_netsim.Net_profiler.profile (Prng.create 3L) network in
  (* Two-way baseline (client vs everything else). *)
  let constraints = Constraints.of_image app.App.app_image in
  let two_way = Analysis.choose ~classifier ~icc ~constraints ~net () in
  (* Three machines: front-end client, middle tier, database server. *)
  let pins cname =
    if String.equal cname "Benefits.ValidationRules" then
      (* A programmer security constraint (paper Sec. 4.3): validation
         must run on the trusted middle tier. *)
      Some "middle"
    else
      match
        Static_analysis.class_verdict
          (Coign_image.Binary_image.class_api_refs app.App.app_image cname)
      with
      | Static_analysis.Pin_client -> Some "client"
      | Static_analysis.Pin_server -> Some "database"
      | Static_analysis.Free -> None
  in
  let mw =
    Multiway_analysis.choose ~classifier ~icc
      ~machines:[ "client"; "middle"; "database" ] ~pins ~net ()
  in
  Printf.printf "two-way cut: %d classifications off the client, %.3f s predicted comm\n"
    two_way.Analysis.server_count (two_way.Analysis.predicted_comm_us /. 1e6);
  Printf.printf "three-way (isolation heuristic): %.3f s predicted comm\n"
    (mw.Multiway_analysis.predicted_comm_us /. 1e6);
  let t =
    Tablefmt.create [ ("Machine", Tablefmt.Left); ("Classifications", Tablefmt.Right) ]
  in
  List.iter
    (fun (m, n) -> Tablefmt.add_row t [ m; string_of_int n ])
    (Multiway_analysis.machine_histogram mw);
  print_string (Tablefmt.render t);
  let by_machine = Hashtbl.create 8 in
  Array.iteri
    (fun c m ->
      let cls = Classifier.class_of_classification classifier c in
      let key = (mw.Multiway_analysis.machines.(m), cls) in
      if not (Hashtbl.mem by_machine key) then Hashtbl.replace by_machine key ())
    mw.Multiway_analysis.assignment;
  List.iter
    (fun machine ->
      let classes =
        Hashtbl.fold (fun (m, cls) () acc -> if m = machine then cls :: acc else acc)
          by_machine []
        |> List.sort_uniq compare
      in
      Printf.printf "  %s: %s\n" machine (String.concat ", " classes))
    [ "client"; "middle"; "database" ];
  note
    "Expected shape: the ODBC gateway and the logic glued to its bulk row\n\
     traffic isolate on the database machine; the constrained validation\n\
     rules hold the middle tier; forms and caches serve the user from the\n\
     client — a 3-tier deployment the two-way engine had to collapse.\n"

let drift () =
  section_header "Extension: Usage-Drift Detection" "Sec. 6 (automatic re-profiling)";
  let app = Octarine.app in
  let classifier = Classifier.create Classifier.Ifcb in
  let profile_sc = App.scenario app "o_oldwp0" in
  let ctx = Coign_com.Runtime.create_ctx app.App.app_registry in
  let rte = Rte.install_profiling ~classifier ctx in
  profile_sc.App.sc_run ctx;
  Rte.uninstall rte;
  let profile = Drift.of_icc (Rte.icc rte) in
  let observe sc_id =
    let sc = App.scenario app sc_id in
    let ctx = Coign_com.Runtime.create_ctx app.App.app_registry in
    let rte =
      Rte.install_distributed ~classifier
        ~config:
          {
            Rte.dc_factory_policy = Factory.All_client;
            dc_network = Coign_netsim.Network.loopback;
            dc_jitter = 0.;
            dc_seed = 1L;
            dc_faults = None;
            dc_retry = Coign_netsim.Fault.default_retry;
            dc_fleet = None;
            dc_watch = None;
          }
        ctx
    in
    sc.App.sc_run ctx;
    Rte.uninstall rte;
    Drift.of_counts (Rte.call_counts rte)
  in
  Printf.printf "profiled scenario: o_oldwp0 (%d communicating pairs)\n"
    (Drift.pair_count profile);
  let t =
    Tablefmt.create
      [
        ("Observed usage", Tablefmt.Left); ("Similarity", Tablefmt.Right);
        ("Re-profile?", Tablefmt.Right);
      ]
  in
  List.iter
    (fun sc_id ->
      let observed = observe sc_id in
      let s = Drift.similarity profile observed in
      Tablefmt.add_row t
        [ sc_id; Tablefmt.cell_float s; (if Drift.drifted ~profile observed then "YES" else "no") ])
    [ "o_oldwp0"; "o_oldwp3"; "o_oldtb3"; "o_oldbth"; "o_newmus" ];
  print_string (Tablefmt.render t);
  note
    "Expected shape: running the profiled scenario scores ~1.0; a different\n\
     document type degrades the message-count signature and triggers the\n\
     silent re-profiling the paper proposes.\n"

let whatif () =
  section_header "Extension: Event-Log Replay" "Sec. 3.3 (log-driven simulation)";
  let app = Octarine.app in
  let sc = App.scenario app "o_oldwp7" in
  let classifier = Classifier.create Classifier.Ifcb in
  let events = Replay.record_scenario ~registry:app.App.app_registry ~classifier sc.App.sc_run in
  Printf.printf "recorded %d events from one %s run; replaying placements:\n"
    (List.length events) sc.App.sc_id;
  let ctx = Coign_com.Runtime.create_ctx app.App.app_registry in
  ignore ctx;
  let net_exact = Coign_netsim.Net_profiler.exact network in
  let constraints = Constraints.of_image app.App.app_image in
  (* Rebuild the ICC for the distribution from the same trace run. *)
  let icc = Icc.create () in
  List.iter
    (fun e ->
      match e with
      | Event.Interface_call
          { caller_classification; callee_classification; iface; remotable; request_bytes;
            reply_bytes; _ } ->
          Icc.record icc ~src:caller_classification ~dst:callee_classification ~iface
            ~remotable ~request:request_bytes ~reply:reply_bytes
      | _ -> ())
    events;
  let dist = Analysis.choose ~classifier ~icc ~constraints ~net:net_exact () in
  let t =
    Tablefmt.create
      [
        ("Placement", Tablefmt.Left); ("Comm (s)", Tablefmt.Right);
        ("Remote calls", Tablefmt.Right); ("Faults", Tablefmt.Right);
      ]
  in
  let try_placement name placement =
    let e = Replay.replay ~events ~placement ~network () in
    Tablefmt.add_row t
      [
        name;
        Tablefmt.cell_float (e.Replay.re_comm_us /. 1e6);
        string_of_int e.Replay.re_remote_calls;
        string_of_int (List.length e.Replay.re_violations);
      ]
  in
  try_placement "all on client (files remote)" (fun c ->
      if
        c >= 0
        && c < Classifier.classification_count classifier
        && String.equal
             (Classifier.class_of_classification classifier c)
             Common.file_server_class_name
      then Constraints.Server
      else Constraints.Client);
  try_placement "Coign-chosen cut" (Analysis.location_of dist);
  try_placement "naive: every odd classification remote" (fun c ->
      if c mod 2 = 1 then Constraints.Server else Constraints.Client);
  print_string (Tablefmt.render t);
  note
    "Replay prices any placement in microseconds without re-running the\n\
     application, and flags placements that would fault on non-remotable\n\
     interfaces — the log-driven simulation use the paper mentions.\n"

let faultsim_bench () =
  section_header "Extension: Fault-Grid Simulation" "ISSUE 3 (deterministic fault injection)";
  let app = Octarine.app in
  let sc = App.scenario app "o_oldwp0" in
  let image = Adps.instrument app.App.app_image in
  let image, _stats = Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run in
  let net = Coign_netsim.Net_profiler.profile (Prng.create 0xC01L) network in
  let image, _dist = Adps.analyze ~image ~net () in
  let grid =
    Fault_grid.run ~seed:0x5EEDL ~engines:[ Fault_grid.Retry ]
      ~faults:
        (Fault_grid.drop_partition_faults ~drop_rates:[ 0.; 0.05; 0.1 ]
           ~partitions_us:[ 0.; 50_000. ] ~start_us:0.)
      ~image ~registry:app.App.app_registry ~network sc.App.sc_run
  in
  Format.printf "@[<v>%a@]@?" Fault_grid.pp_faultsim grid;
  add_json "faultsim" (Fault_grid.faultsim_json grid);
  note
    "Expected shape: the zero-fault row reproduces the clean distributed run\n\
     bit for bit; raising the drop rate buys retries and fault time but the\n\
     retry policy keeps every call completing; an early partition degrades\n\
     forwarded instantiations to the client instead of failing the run.\n"

let obs_bench () =
  section_header "Extension: Observability Overhead"
    "ISSUE 4 (span tracing, metrics registry) acceptance criterion";
  let app = Octarine.app in
  let sc = App.scenario app "o_oldwp0" in
  let image = Adps.instrument app.App.app_image in
  let registry = app.App.app_registry in
  let time f =
    let reps = 3 in
    let best = ref infinity in
    let result = ref None in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      let r = f () in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      result := Some r
    done;
    ((match !result with Some r -> r | None -> assert false), !best)
  in
  (* Each rep profiles the same freshly-instrumented image, so reps are
     identical work; [time] keeps the best of three. *)
  let bare_stats, bare_s = time (fun () -> snd (Adps.profile ~image ~registry sc.App.sc_run)) in
  let null_stats, null_s =
    time (fun () ->
        let tracer = Coign_obs.Trace.create Coign_obs.Trace.null_sink in
        let metrics = Coign_obs.Metrics.registry () in
        snd (Adps.profile ~tracer ~metrics ~image ~registry sc.App.sc_run))
  in
  let (collected_stats, spans), collect_s =
    time (fun () ->
        let sink, spans = Coign_obs.Trace.collector () in
        let tracer = Coign_obs.Trace.create sink in
        let metrics = Coign_obs.Metrics.registry () in
        let stats = snd (Adps.profile ~tracer ~metrics ~image ~registry sc.App.sc_run) in
        (stats, List.length (spans ())))
  in
  let identical = bare_stats = null_stats && bare_stats = collected_stats in
  let overhead_null = (null_s -. bare_s) /. bare_s in
  let overhead_collect = (collect_s -. bare_s) /. bare_s in
  let t =
    Tablefmt.create
      [ ("Configuration", Tablefmt.Left); ("Best (ms)", Tablefmt.Right);
        ("Overhead", Tablefmt.Right) ]
  in
  Tablefmt.add_row t
    [ "no observability"; Tablefmt.cell_float (bare_s *. 1e3); "-" ];
  Tablefmt.add_row t
    [ "tracer (null sink) + metrics"; Tablefmt.cell_float (null_s *. 1e3);
      Tablefmt.cell_pct overhead_null ];
  Tablefmt.add_row t
    [ "tracer (collector) + metrics"; Tablefmt.cell_float (collect_s *. 1e3);
      Tablefmt.cell_pct overhead_collect ];
  print_string (Tablefmt.render t);
  Printf.printf "%d intercepted calls, %d spans; profile stats %s\n"
    bare_stats.Adps.ps_calls spans
    (if identical then "identical with and without observability"
     else "DIFFER under observability (BUG)");
  add_json "obs"
    (Printf.sprintf
       "{\"app\": \"octarine\", \"scenario\": \"%s\", \"calls\": %d, \"spans\": %d, \
        \"bare_s\": %.17g, \"null_obs_s\": %.17g, \"collector_obs_s\": %.17g, \
        \"overhead_null\": %.17g, \"overhead_collector\": %.17g, \"identical\": %b}"
       (Jsonu.escape sc.App.sc_id) bare_stats.Adps.ps_calls spans bare_s null_s collect_s
       overhead_null overhead_collect identical);
  if not identical then exit 3;
  note
    "Expected shape: the RTE branches once per interception on the optional\n\
     instruments, so the null-sink configuration costs a few percent at most;\n\
     collecting every span in memory adds allocation but never changes the\n\
     profile — the zero-cost-when-off guarantee, measured.\n"

let resilience_bench () =
  section_header "Extension: Adaptive Resilience"
    "ISSUE 5 (circuit breaker + fallback ladder) acceptance criterion";
  let netw = Coign_netsim.Network.atm_155 in
  let partition = { Coign_netsim.Fault.zero with fs_partitions_us = [ (50_000., 550_000.) ] } in
  let time f =
    let reps = 3 in
    let best = ref infinity in
    let result = ref None in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      let r = f () in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      result := Some r
    done;
    ((match !result with Some r -> r | None -> assert false), !best)
  in
  let apps = [ (Octarine.app, "o_oldwp0"); (Photodraw.app, "p_oldmsr"); (Benefits.app, "b_vueone") ] in
  let rows =
    List.map
      (fun (app, sc_id) ->
        let sc = App.scenario app sc_id in
        let registry = app.App.app_registry in
        let image = Adps.instrument app.App.app_image in
        let image, _ = Adps.profile ~image ~registry sc.App.sc_run in
        let net = Coign_netsim.Net_profiler.exact netw in
        let ladder = Adps.fallback_ladder ~image ~net () in
        let image, _ = Adps.analyze ~image ~net () in
        let resilience = Rte.resilience ladder in
        let run ?faults resilience =
          Adps.execute ?faults ?resilience ~image ~registry ~network:netw sc.App.sc_run
        in
        (* Zero-fault: a resilience policy that only ever sees successes
           must cost nothing and change nothing. *)
        let bare, bare_s = time (fun () -> run None) in
        let watched, watched_s = time (fun () -> run (Some resilience)) in
        let identical = bare = watched in
        let overhead = (watched_s -. bare_s) /. bare_s in
        (* Sustained mid-run partition: retry-only vs failover. *)
        let base_p = run ~faults:partition None in
        let res_p = run ~faults:partition (Some resilience) in
        let avail s =
          if bare.Adps.es_intercepted = 0 then 1.
          else
            Float.min 1.
              (float_of_int s.Adps.es_intercepted /. float_of_int bare.Adps.es_intercepted)
        in
        ( app.App.app_name, sc_id, Fallback.rung_count ladder, bare.Adps.es_intercepted,
          identical, overhead, avail base_p, avail res_p, base_p.Adps.es_completed,
          res_p.Adps.es_completed, res_p.Adps.es_failovers ))
      apps
  in
  let t =
    Tablefmt.create
      [
        ("App / scenario", Tablefmt.Left); ("Rungs", Tablefmt.Right);
        ("Calls", Tablefmt.Right); ("Overhead", Tablefmt.Right);
        ("Avail (retry)", Tablefmt.Right); ("Avail (resil)", Tablefmt.Right);
        ("Done r/R", Tablefmt.Right);
      ]
  in
  List.iter
    (fun (name, sc_id, rungs, calls, _, overhead, ab, ar, db, dr, _) ->
      Tablefmt.add_row t
        [
          Printf.sprintf "%s %s" name sc_id; string_of_int rungs; string_of_int calls;
          Tablefmt.cell_pct overhead; Tablefmt.cell_float ~decimals:3 ab;
          Tablefmt.cell_float ~decimals:3 ar;
          Printf.sprintf "%s/%s" (if db then "yes" else "cut") (if dr then "yes" else "cut");
        ])
    rows;
  print_string (Tablefmt.render t);
  let all_identical = List.for_all (fun (_, _, _, _, id, _, _, _, _, _, _) -> id) rows in
  let improved =
    List.length (List.filter (fun (_, _, _, _, _, _, ab, ar, _, _, _) -> ar > ab) rows)
  in
  Printf.printf
    "zero-fault runs %s with the policy attached; availability under a 500 ms\n\
     partition strictly improves on %d of %d applications.\n"
    (if all_identical then "bit-identical" else "DIFFER (BUG)")
    improved (List.length rows);
  add_json "resilience"
    (Printf.sprintf "[%s]"
       (String.concat ", "
          (List.map
             (fun (name, sc_id, rungs, calls, id, overhead, ab, ar, db, dr, fo) ->
               Printf.sprintf
                 "{\"app\": \"%s\", \"scenario\": \"%s\", \"rungs\": %d, \"calls\": %d, \
                  \"identical\": %b, \"overhead\": %.17g, \"availability_retry\": %.17g, \
                  \"availability_resilient\": %.17g, \"completed_retry\": %b, \
                  \"completed_resilient\": %b, \"failovers\": %d}"
                 (Jsonu.escape name) (Jsonu.escape sc_id) rungs calls id overhead ab ar db dr
                 fo)
             rows)));
  if not all_identical then exit 3;
  if improved < 2 then exit 3;
  note
    "Expected shape: the breaker branch is one option check per forwarded call,\n\
     so the attached-policy overhead is noise; under the partition the retry-only\n\
     baseline is cut short at its first exhausted call while failover onto the\n\
     fallback ladder keeps the scenario running to completion.\n"

let verify_bench () =
  section_header "Extension: Exhaustive Distribution Checker"
    "ISSUE 6 (explicit-state exploration of failover interleavings) acceptance criterion";
  let module V = Coign_verify in
  let time f =
    let reps = 3 in
    let best = ref infinity in
    let result = ref None in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      let r = f () in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      result := Some r
    done;
    ((match !result with Some r -> r | None -> assert false), !best)
  in
  let apps = [ (Octarine.app, "o_oldwp0"); (Photodraw.app, "p_oldmsr"); (Benefits.app, "b_bigone") ] in
  let rows =
    List.map
      (fun (app, sc_id) ->
        let sc = App.scenario app sc_id in
        let image = Adps.instrument app.App.app_image in
        let image, _ = Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run in
        let classifier, icc =
          match Adps.load_profile image with Some p -> p | None -> assert false
        in
        let session = Adps.analysis_session image in
        let net = Coign_netsim.Net_profiler.exact network in
        let ladder = Adps.fallback_ladder ~image ~net () in
        let truth = Fallback.migration_safety session in
        let model = V.Model.build ~classifier ~icc ~ladder ~truth () in
        let result, seconds = time (fun () -> V.Explore.run model) in
        let stats = result.V.Explore.r_stats in
        let reduction =
          float_of_int model.V.Model.m_classifications
          /. float_of_int (V.Model.group_count model)
        in
        let states_per_s = float_of_int stats.V.Explore.sr_states /. seconds in
        ( app.App.app_name, sc_id, model, stats, List.length result.V.Explore.r_violations,
          reduction, seconds, states_per_s ))
      apps
  in
  let t =
    Tablefmt.create
      [
        ("App / scenario", Tablefmt.Left); ("Classes", Tablefmt.Right);
        ("Groups", Tablefmt.Right); ("Edges", Tablefmt.Right); ("Rungs", Tablefmt.Right);
        ("States", Tablefmt.Right); ("Trans", Tablefmt.Right); ("Reduction", Tablefmt.Right);
        ("States/s", Tablefmt.Right);
      ]
  in
  let module E = Coign_verify.Explore in
  List.iter
    (fun (name, sc_id, model, stats, _, reduction, _, states_per_s) ->
      Tablefmt.add_row t
        [
          Printf.sprintf "%s %s" name sc_id;
          string_of_int model.V.Model.m_classifications;
          string_of_int (V.Model.group_count model);
          string_of_int (Array.length model.V.Model.m_edges);
          string_of_int (Array.length model.V.Model.m_rung_names);
          string_of_int stats.E.sr_states; string_of_int stats.E.sr_transitions;
          Printf.sprintf "%.1fx" reduction; Printf.sprintf "%.0f" states_per_s;
        ])
    rows;
  print_string (Tablefmt.render t);
  let all_complete = List.for_all (fun (_, _, _, s, _, _, _, _) -> s.E.sr_complete) rows in
  let all_clean = List.for_all (fun (_, _, _, _, v, _, _, _) -> v = 0) rows in
  Printf.printf
    "exploration %s at the default depth; %s CG008/CG009 violations on any ladder.\n"
    (if all_complete then "is exhaustive" else "was TRUNCATED (BUG)")
    (if all_clean then "no" else "FOUND (BUG)");
  add_json "verify"
    (Printf.sprintf "[%s]"
       (String.concat ", "
          (List.map
             (fun (name, sc_id, model, stats, viols, reduction, seconds, states_per_s) ->
               Printf.sprintf
                 "{\"app\": \"%s\", \"scenario\": \"%s\", \"classifications\": %d, \
                  \"groups\": %d, \"edges\": %d, \"rungs\": %d, \"states\": %d, \
                  \"transitions\": %d, \"dedup_hits\": %d, \"depth\": %d, \
                  \"complete\": %b, \"violations\": %d, \"reduction\": %.17g, \
                  \"seconds\": %.17g, \"states_per_s\": %.17g}"
                 (Jsonu.escape name) (Jsonu.escape sc_id) model.V.Model.m_classifications
                 (V.Model.group_count model)
                 (Array.length model.V.Model.m_edges)
                 (Array.length model.V.Model.m_rung_names)
                 stats.E.sr_states stats.E.sr_transitions stats.E.sr_dedup_hits
                 stats.E.sr_depth stats.E.sr_complete viols reduction seconds states_per_s)
             rows)));
  if not (all_complete && all_clean) then exit 3;
  note
    "Expected shape: symmetry groups cut the alphabet well below the raw\n\
     classification count, so each ladder's full interleaving closure is a\n\
     few dozen states and explores in well under a second.\n"

(* ------------------------------------------------------------------ *)
(* Open-loop load: queueing-aware latency percentiles                  *)
(* ------------------------------------------------------------------ *)

let load_bench () =
  section_header "Open-Loop Load: Queueing-Aware Latency Percentiles"
    "ISSUE 8 acceptance; Sec. 4 scenarios driven as live traffic";
  let net = Coign_netsim.Net_profiler.profile (Prng.create 7L) network in
  let build (app : App.t) scenarios =
    let image = Adps.instrument app.App.app_image in
    let image =
      List.fold_left
        (fun image id ->
          let sc = App.scenario app id in
          fst (Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run))
        image scenarios
    in
    fst (Adps.analyze ~image ~net ())
  in
  (* Single-session queueing-off runs must reproduce the Replay
     estimator bit for bit — the load layer adds queueing on top of
     the same cost model, it does not fork it. *)
  let identity_gate (app : App.t) image scenarios =
    let classifier, dist = Option.get (Adps.load_distribution image) in
    List.for_all
      (fun id ->
        let sc = App.scenario app id in
        let events =
          Replay.record_scenario ~registry:app.App.app_registry ~classifier
            sc.App.sc_run
        in
        let est = Replay.what_if ~events ~distribution:dist ~network () in
        let r =
          Loadsim.run ~queueing:false ~sessions:1 ~scenarios:[ id ]
            ~arrival:(Loadsim.Poisson 1.) ~seed:1L ~image ~network ()
        in
        Int64.bits_of_float r.Loadsim.r_p50_us
        = Int64.bits_of_float est.Replay.re_comm_us)
      scenarios
  in
  let sessions = 1_500 in
  let apps =
    [
      ("octarine", [ "o_oldwp0"; "o_oldtb0" ], [ 0.5; 1.0; 2.0 ]);
      ("ingest", [ "i_strm1"; "i_replay" ], [ 5.0; 10.0; 15.0 ]);
    ]
  in
  let t =
    Tablefmt.create
      [
        ("App", Tablefmt.Left); ("Rate (/s)", Tablefmt.Right);
        ("p50 (ms)", Tablefmt.Right); ("p95 (ms)", Tablefmt.Right);
        ("p99 (ms)", Tablefmt.Right); ("Thruput (/s)", Tablefmt.Right);
        ("Avail", Tablefmt.Right); ("Link util", Tablefmt.Right);
      ]
  in
  let rows = ref [] in
  let all_monotone = ref true in
  let all_identical = ref true in
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
    | _ -> true
  in
  List.iter
    (fun (name, scenarios, rates) ->
      let app = Suite.find_app name in
      let image = build app scenarios in
      let identical = identity_gate app image scenarios in
      all_identical := !all_identical && identical;
      let results =
        List.map
          (fun rate ->
            ( rate,
              Loadsim.run ~sessions ~scenarios ~arrival:(Loadsim.Poisson rate)
                ~seed:0x5EEDL ~image ~network () ))
          rates
      in
      all_monotone :=
        !all_monotone
        && strictly_increasing (List.map (fun (_, r) -> r.Loadsim.r_p99_us) results);
      List.iter
        (fun (rate, r) ->
          let comm_us =
            List.fold_left
              (fun acc c ->
                acc
                +. (float_of_int c.Loadsim.cs_sessions *. c.Loadsim.cs_comm_us))
              0. r.Loadsim.r_classes
            /. float_of_int r.Loadsim.r_sessions
          in
          Tablefmt.add_row t
            [
              name; Tablefmt.cell_float ~decimals:1 rate;
              Tablefmt.cell_float (r.Loadsim.r_p50_us /. 1e3);
              Tablefmt.cell_float (r.Loadsim.r_p95_us /. 1e3);
              Tablefmt.cell_float (r.Loadsim.r_p99_us /. 1e3);
              Tablefmt.cell_float (r.Loadsim.r_throughput_per_s);
              Tablefmt.cell_float ~decimals:4 r.Loadsim.r_availability;
              Tablefmt.cell_float ~decimals:3 r.Loadsim.r_link_util;
            ];
          rows :=
            Printf.sprintf
              "{\"app\": \"%s\", \"rate\": %.17g, \"sessions\": %d, \"p50_us\": \
               %.17g, \"p95_us\": %.17g, \"p99_us\": %.17g, \"throughput_per_s\": \
               %.17g, \"availability\": %.17g, \"comm_us\": %.17g, \"link_util\": \
               %.17g, \"identical\": %b}"
              (Jsonu.escape name) rate r.Loadsim.r_sessions r.Loadsim.r_p50_us
              r.Loadsim.r_p95_us r.Loadsim.r_p99_us r.Loadsim.r_throughput_per_s
              r.Loadsim.r_availability comm_us r.Loadsim.r_link_util identical
            :: !rows)
        results)
    apps;
  print_string (Tablefmt.render t);
  Printf.printf "queueing-off identity vs Replay: %s; p99 %s with arrival rate.\n"
    (if !all_identical then "bit-exact" else "BROKEN (BUG)")
    (if !all_monotone then "strictly increasing" else "NOT MONOTONE (BUG)");
  add_json "load" (Printf.sprintf "[%s]" (String.concat ", " (List.rev !rows)));
  if not (!all_identical && !all_monotone) then exit 3;
  note
    "Expected shape: tail latency rises strictly with offered load as FIFO\n\
     queues build at the server host and link, while the unloaded single-session\n\
     cost stays exactly the Replay estimate — queueing is layered on the same\n\
     cost model, not a second pricing path.\n"

(* ------------------------------------------------------------------ *)
(* Online re-partitioning: the drift watch closed loop                 *)
(* ------------------------------------------------------------------ *)

let watch_bench () =
  section_header "Online Re-Partitioning: Drift Watch Closed Loop"
    "ISSUE 9 acceptance; Sec. 6 (relocating components during execution)";
  let app = Suite.find_app "octarine" in
  let image = Adps.instrument app.App.app_image in
  let profiled, _ =
    Adps.profile ~image ~registry:app.App.app_registry
      (App.scenario app "o_oldwp0").App.sc_run
  in
  let session = Adps.analysis_session profiled in
  let net = Coign_netsim.Net_profiler.exact network in
  (* Re-cut latency: one online decision is a scaled re-pricing pass
     plus a min-cut on the session's arena — stage 1 never rebuilds. *)
  let n = Icc_graph.pair_count (Analysis.Session.graph session) in
  let scale =
    {
      Icc_graph.sc_messages =
        Array.init n (fun i -> 0.5 +. (float_of_int (i mod 7) /. 4.));
      sc_bytes = Array.init n (fun i -> 0.25 +. (float_of_int (i mod 5) /. 2.));
    }
  in
  ignore (Analysis.Session.solve session ~scale ~net);
  let reps = 200 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (Analysis.Session.solve session ~scale ~net)
  done;
  let recut_us = (Unix.gettimeofday () -. t0) /. float_of_int reps *. 1e6 in
  Printf.printf "scaled re-cut through the session: %.1f us over %d pairs\n"
    recut_us n;
  (* Quiet-watch identity and overhead: a threshold-0 watch can never
     fire (similarity lives in [0,1]), so observation, sampling, and
     drift checks must leave the virtual clock bit-identical; the wall
     clock pays only the tap and window arithmetic. *)
  let dist_image, _ = Adps.analyze_with ~session ~image:profiled ~net () in
  let classifier, dist = Option.get (Adps.load_distribution dist_image) in
  let deploy watched =
    let ctx = Coign_com.Runtime.create_ctx app.App.app_registry in
    let wc =
      if watched then
        Some
          (Rte.watch ~threshold:0. ~net (Analysis.Session.copy session))
      else None
    in
    let rte =
      Rte.install_distributed ~classifier
        ~config:
          {
            Rte.dc_factory_policy = Factory.By_classification dist;
            dc_network = network;
            dc_jitter = 0.;
            dc_seed = 0x5EEDL;
            dc_faults = None;
            dc_retry = Coign_netsim.Fault.default_retry;
            dc_fleet = None;
            dc_watch = wc;
          }
        ctx
    in
    (App.scenario app "o_oldwp0").App.sc_run ctx;
    Rte.uninstall rte;
    Rte.comm_us rte
  in
  ignore (deploy false);
  ignore (deploy true);
  let overhead_reps = 5 in
  let bare_comm = ref 0. and watched_comm = ref 0. in
  let bare_s = ref 0. and watched_s = ref 0. in
  for _ = 1 to overhead_reps do
    let t0 = Unix.gettimeofday () in
    bare_comm := deploy false;
    bare_s := !bare_s +. Unix.gettimeofday () -. t0;
    let t0 = Unix.gettimeofday () in
    watched_comm := deploy true;
    watched_s := !watched_s +. Unix.gettimeofday () -. t0
  done;
  let identical =
    Int64.bits_of_float !bare_comm = Int64.bits_of_float !watched_comm
  in
  let overhead = (!watched_s -. !bare_s) /. !bare_s in
  Printf.printf "quiet watch vs bare RTE: comm %s, wall overhead %+.1f%%\n"
    (if identical then "bit-exact" else "DIVERGED (BUG)")
    (overhead *. 100.);
  (* The closed loop: octarine profiled on wp0, usage shifts to wp7.
     The watch must detect, re-cut live, and land on the oracle's
     placement with steady-state communication reduced. *)
  let r =
    Coign_sim.Watchsim.run
      ~image:(Adps.instrument app.App.app_image)
      ~network ~profile_mix:[ "o_oldwp0" ]
      ~phases:
        [
          [ "o_oldwp0" ];
          [ "o_oldwp7"; "o_oldwp7"; "o_oldwp7" ];
          [ "o_oldwp7"; "o_oldwp7"; "o_oldwp7" ];
        ]
      ()
  in
  let open Coign_sim.Watchsim in
  let t =
    Tablefmt.create
      [
        ("Phase", Tablefmt.Left); ("Stale (ms)", Tablefmt.Right);
        ("Watched (ms)", Tablefmt.Right);
      ]
  in
  List.iteri
    (fun i ph ->
      Tablefmt.add_row t
        [
          Printf.sprintf "%d: %s" (i + 1) (String.concat " " ph.ph_scenarios);
          Tablefmt.cell_float (ph.ph_stale_comm_us /. 1e3);
          Tablefmt.cell_float (ph.ph_watched_comm_us /. 1e3);
        ])
    r.w_phase_stats;
  print_string (Tablefmt.render t);
  Printf.printf
    "detections %d, repartitions %d (%d instances migrated); cut %d -> %d \
     servers (oracle %d)\n"
    r.w_drift_detections r.w_repartitions r.w_migrations
    r.w_stale.Analysis.server_count r.w_final_servers
    r.w_oracle.Analysis.server_count;
  let steady_reduced = r.w_steady_watched_us < r.w_steady_stale_us in
  Printf.printf "converged to oracle cut: %s; steady state %.3f -> %.3f ms\n"
    (if r.w_converged then "yes" else "NO (BUG)")
    (r.w_steady_stale_us /. 1e3)
    (r.w_steady_watched_us /. 1e3);
  add_json "watch"
    (Printf.sprintf
       "{\"recut_us\": %.17g, \"pairs\": %d, \"quiet_identical\": %b, \
        \"watch_overhead_frac\": %.17g, \"converged\": %b, \"detections\": %d, \
        \"repartitions\": %d, \"migrations\": %d, \"steady_stale_us\": %.17g, \
        \"steady_watched_us\": %.17g, \"stale_servers\": %d, \
        \"final_servers\": %d, \"oracle_servers\": %d, \"tap_offered\": %d, \
        \"tap_sampled\": %d}"
       recut_us n identical overhead r.w_converged r.w_drift_detections
       r.w_repartitions r.w_migrations r.w_steady_stale_us r.w_steady_watched_us
       r.w_stale.Analysis.server_count r.w_final_servers
       r.w_oracle.Analysis.server_count r.w_tap_offered r.w_tap_sampled);
  if not (identical && r.w_converged && steady_reduced) then exit 3;
  note
    "Expected shape: a re-cut costs microseconds (one pricing pass plus one\n\
     min-cut on the warm arena), the quiet watch never moves the virtual\n\
     clock, and on the wp0 -> wp7 shift the watch walks the placement to the\n\
     offline oracle's cut, cutting steady-state communication severalfold.\n"

(* ------------------------------------------------------------------ *)

let fleet_bench () =
  section_header "Extension: Replicated Server Fleet"
    "ISSUE 10 (k-way pool, replica failover, pool-elastic ladder) acceptance criterion";
  let netw = Coign_netsim.Network.ethernet_10 in
  let apps =
    [ (Octarine.app, "o_oldwp0"); (Photodraw.app, "p_oldmsr"); (Benefits.app, "b_vueone") ]
  in
  let pools = 3 in
  let faults = Fault_grid.fleet_faults ~start_us:50_000. ~length_us:500_000. in
  let crash = List.find (fun f -> f.Fault_grid.f_scope = Fault_grid.Host0) faults in
  let grids =
    List.map
      (fun (app, sc_id) ->
        let sc = App.scenario app sc_id in
        let registry = app.App.app_registry in
        let image = Adps.instrument app.App.app_image in
        let image, _ = Adps.profile ~image ~registry sc.App.sc_run in
        let grid =
          Fault_grid.run ~seed:0x5EEDL ~engines:(Fault_grid.fleet_engines ~pools) ~faults ~image
            ~registry ~network:netw sc.App.sc_run
        in
        (app.App.app_name, sc_id, grid))
      apps
  in
  (* The single-host crash cells of the replicated pools: the ladder's
     and the pool's served-remote ratios and the pool's counters. *)
  let crash_cells grid =
    let open Fault_grid in
    let ladder = (outcome grid Resilience crash).o_stats in
    List.init (pools - 1) (fun i ->
        let o = outcome grid (Pool (i + 2)) crash in
        (i + 2, served grid ladder, served grid o.o_stats, Option.get o.o_pool))
  in
  let t =
    Tablefmt.create
      [
        ("App / scenario", Tablefmt.Left); ("Pool", Tablefmt.Right);
        ("Serve (ladder)", Tablefmt.Right); ("Serve (fleet)", Tablefmt.Right);
        ("Promos", Tablefmt.Right); ("Splits", Tablefmt.Right); ("Resizes", Tablefmt.Right);
      ]
  in
  List.iter
    (fun (name, sc_id, grid) ->
      List.iter
        (fun (k, serve_b, serve_f, fs) ->
          Tablefmt.add_row t
            [
              Printf.sprintf "%s %s" name sc_id; string_of_int k;
              Tablefmt.cell_float ~decimals:3 serve_b; Tablefmt.cell_float ~decimals:3 serve_f;
              string_of_int fs.Rte.fs_promotions; string_of_int fs.Rte.fs_splits;
              string_of_int fs.Rte.fs_resizes;
            ])
        (crash_cells grid))
    grids;
  print_string (Tablefmt.render t);
  (* Gate 1: every pool-of-one cell is bit-identical to the two-host
     resilience ladder, which is itself the one-host pool. *)
  let all_identical =
    List.for_all
      (fun (_, _, grid) ->
        let stats e f = (Fault_grid.outcome grid e f).Fault_grid.o_stats in
        List.for_all (fun f -> stats (Fault_grid.Pool 1) f = stats Fault_grid.Resilience f) faults)
      grids
  in
  (* Gate 2: under the single-host crash, every replicated pool serves
     strictly more of its remote calls than the two-host ladder, on at
     least two of the three applications. *)
  let improved =
    List.length
      (List.filter
         (fun (_, _, grid) ->
           List.for_all (fun (_, serve_b, serve_f, _) -> serve_f > serve_b) (crash_cells grid))
         grids)
  in
  Printf.printf
    "pool-of-one runs %s with the two-host ladder; under a 500 ms single-host\n\
     crash the replicated pool serves strictly more remote calls on %d of %d\n\
     applications.\n"
    (if all_identical then "bit-identical" else "DIFFER (BUG)")
    improved (List.length grids);
  add_json "fleet"
    (Printf.sprintf
       "{\"all_pool1_identical\": %b, \"crash_improved_apps\": %d, \"apps\": [%s]}"
       all_identical improved
       (String.concat ", "
          (List.map
             (fun (name, sc_id, grid) ->
               Printf.sprintf "{\"app\": \"%s\", \"scenario\": \"%s\", \"grid\": %s}"
                 (Jsonu.escape name) (Jsonu.escape sc_id) (Fault_grid.fleet_json grid))
             grids)));
  if not all_identical then exit 3;
  if improved < 2 then exit 3;
  note
    "Expected shape: resilience is the one-host pool, so a pool of one ties the\n\
     resilience configuration bit for bit; wider pools ride\n\
     out the crash by promoting the dead host's shards onto standing replicas,\n\
     so the fleet keeps serving remotely while the ladder has already retreated\n\
     to its all-client rung.\n"

let sections =
  [
    ("table1", table1); ("table2", table2); ("table3", table3); ("fig4", fig4);
    ("fig5", fig5); ("fig6", fig6); ("fig7", fig7); ("fig8", fig8); ("table4", table4);
    ("table5", table5); ("overhead", overhead); ("adaptive", adaptive);
    ("multiway", multiway); ("drift", drift); ("whatif", whatif);
    ("session", session_bench); ("micro", micro); ("faultsim", faultsim_bench);
    ("obs", obs_bench); ("resilience", resilience_bench); ("verify", verify_bench);
    ("load", load_bench); ("watch", watch_bench); ("fleet", fleet_bench);
  ]

let () =
  let rec split_json acc = function
    | [] -> (List.rev acc, None)
    | [ "--json" ] ->
        Printf.eprintf "--json needs a file argument\n";
        exit 2
    | "--json" :: path :: rest -> (List.rev acc @ rest, Some path)
    | arg :: rest -> split_json (arg :: acc) rest
  in
  let args, json_path = split_json [] (List.tl (Array.to_list Sys.argv)) in
  let requested = match args with [] -> List.map fst sections | args -> args in
  Printf.printf
    "Coign ADPS experiment harness — reproduces the evaluation of\n\
     \"The Coign Automatic Distributed Partitioning System\" (OSDI '99).\n\
     Network model: %s.\n"
    network.Coign_netsim.Network.net_name;
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown section %S (known: %s)\n" name
            (String.concat ", " (List.map fst sections));
          exit 2)
    requested;
  match json_path with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Printf.fprintf oc "{\n  \"harness\": \"coign-bench\",\n  \"network\": \"%s\",\n"
        (Jsonu.escape network.Coign_netsim.Network.net_name);
      Printf.fprintf oc "  \"sections\": {\n%s\n  }\n}\n"
        (String.concat ",\n"
           (List.rev_map
              (fun (name, fragment) ->
                Printf.sprintf "    \"%s\": %s" (Jsonu.escape name) fragment)
              !json_sections));
      close_out oc;
      Printf.printf "\nwrote machine-readable results to %s\n" path
