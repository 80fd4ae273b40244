(* Integration test of the command-line toolchain: the stages of paper
   Figure 1 run as separate processes over image files, exactly as a
   user would drive them. *)

let exe = "../bin/coign.exe"

let run_cmd args =
  let cmd = Filename.quote_command exe args in
  Sys.command (cmd ^ " > /dev/null 2>&1")

let with_tmp f =
  let dir = Filename.temp_file "coign_cli" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let check_ok what rc = Alcotest.(check int) what 0 rc

let test_full_pipeline () =
  if not (Sys.file_exists exe) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let img = Filename.concat dir "oct.img" in
        check_ok "instrument" (run_cmd [ "instrument"; "--app"; "octarine"; "-o"; img ]);
        check_ok "profile wp0" (run_cmd [ "profile"; img; "--scenario"; "o_oldwp0"; "-o"; img ]);
        check_ok "profile tb0" (run_cmd [ "profile"; img; "--scenario"; "o_oldtb0"; "-o"; img ]);
        check_ok "analyze" (run_cmd [ "analyze"; img; "--network"; "ethernet10"; "-o"; img ]);
        check_ok "show" (run_cmd [ "show"; img ]);
        check_ok "run" (run_cmd [ "run"; img; "--scenario"; "o_oldtb0"; "--compare-default" ]);
        (* The distributed image is a valid, decodable binary image. *)
        let image = Coign_image.Binary_image.load img in
        Alcotest.(check bool) "distribution stored" true
          (Coign_core.Adps.load_distribution image <> None))

let test_log_combine_flow () =
  if not (Sys.file_exists exe) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let img = Filename.concat dir "oct.img" in
        let scratch = Filename.concat dir "scratch.img" in
        let log1 = Filename.concat dir "wp0.cpl" in
        let log2 = Filename.concat dir "tb0.cpl" in
        check_ok "instrument" (run_cmd [ "instrument"; "--app"; "octarine"; "-o"; img ]);
        check_ok "profile+log 1"
          (run_cmd [ "profile"; img; "--scenario"; "o_oldwp0"; "--log"; log1; "-o"; scratch ]);
        check_ok "profile+log 2"
          (run_cmd [ "profile"; img; "--scenario"; "o_oldtb0"; "--log"; log2; "-o"; scratch ]);
        check_ok "combine" (run_cmd [ "combine"; img; log1; log2; "-o"; img ]);
        check_ok "analyze combined" (run_cmd [ "analyze"; img; "-o"; img ]);
        let image = Coign_image.Binary_image.load img in
        let classifier, _ = Option.get (Coign_core.Adps.load_distribution image) in
        Alcotest.(check bool) "classifications from both runs" true
          (Coign_core.Classifier.classification_count classifier > 30))

let test_error_reporting () =
  if not (Sys.file_exists exe) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let img = Filename.concat dir "x.img" in
        Alcotest.(check bool) "unknown app rejected" true
          (run_cmd [ "instrument"; "--app"; "nonesuch"; "-o"; img ] <> 0);
        check_ok "instrument" (run_cmd [ "instrument"; "--app"; "benefits"; "-o"; img ]);
        Alcotest.(check bool) "unknown scenario rejected" true
          (run_cmd [ "profile"; img; "--scenario"; "o_oldwp0"; "-o"; img ] <> 0);
        Alcotest.(check bool) "analyze without profile rejected" true
          (run_cmd [ "analyze"; img; "-o"; img ] <> 0))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_trace_golden () =
  (* `coign trace --format spans` output is timed on the deterministic
     sim clock, so the whole trace of a fixed scenario is golden. *)
  let golden = "golden/trace_benefits_addone.txt" in
  if not (Sys.file_exists exe && Sys.file_exists golden) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let img = Filename.concat dir "ben.img" in
        let out = Filename.concat dir "spans.txt" in
        check_ok "instrument" (run_cmd [ "instrument"; "--app"; "benefits"; "-o"; img ]);
        check_ok "trace"
          (run_cmd
             [ "trace"; img; "--scenario"; "b_addone"; "--format"; "spans"; "-o"; out ]);
        Alcotest.(check string) "span trace golden" (read_file golden) (read_file out))

let test_events_golden () =
  (* `coign trace --format events` on a profiling image pins the event
     stream a listening logger receives, call by call. *)
  let golden = "golden/events_benefits_addone.txt" in
  if not (Sys.file_exists exe && Sys.file_exists golden) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let img = Filename.concat dir "ben.img" in
        let out = Filename.concat dir "events.txt" in
        check_ok "instrument" (run_cmd [ "instrument"; "--app"; "benefits"; "-o"; img ]);
        check_ok "trace"
          (run_cmd
             [ "trace"; img; "--scenario"; "b_addone"; "--format"; "events"; "-o"; out ]);
        Alcotest.(check string) "event trace golden" (read_file golden) (read_file out))

(* A benefits image profiled over every non-bigone scenario and analyzed
   on ethernet10: the distributed-mode trace surfaces. *)
let benefits_distributed dir =
  let img = Filename.concat dir "ben.img" in
  check_ok "instrument" (run_cmd [ "instrument"; "--app"; "benefits"; "-o"; img ]);
  List.iter
    (fun sc -> check_ok ("profile " ^ sc) (run_cmd [ "profile"; img; "--scenario"; sc; "-o"; img ]))
    [ "b_vueone"; "b_addone"; "b_delone" ];
  check_ok "analyze" (run_cmd [ "analyze"; img; "--network"; "ethernet10"; "-o"; img ]);
  img

let test_distributed_trace_goldens () =
  (* Spans and the event stream of a distributed run, call by call:
     the distributed interception path's observable output. *)
  let goldens =
    [ ("spans", "golden/trace_dist_benefits_addone.txt");
      ("events", "golden/events_dist_benefits_addone.txt") ]
  in
  if not (Sys.file_exists exe && List.for_all (fun (_, g) -> Sys.file_exists g) goldens) then
    Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let img = benefits_distributed dir in
        List.iter
          (fun (format, golden) ->
            let out = Filename.concat dir (format ^ ".txt") in
            check_ok ("trace " ^ format)
              (run_cmd
                 [ "trace"; img; "--scenario"; "b_addone"; "--format"; format; "-o"; out ]);
            Alcotest.(check string) (format ^ " golden") (read_file golden) (read_file out))
          goldens)

let test_trace_reports_what_it_wrote () =
  (* The confirmation line counts what the file holds: spans for the
     span formats, events for the event stream. *)
  if not (Sys.file_exists exe) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let img = benefits_distributed dir in
        let msg = Filename.concat dir "msg.txt" in
        List.iter
          (fun (format, what) ->
            let out = Filename.concat dir (format ^ ".out") in
            let rc =
              Sys.command
                (Filename.quote_command exe
                   [ "trace"; img; "--scenario"; "b_addone"; "--format"; format; "-o"; out ]
                ^ " > " ^ Filename.quote msg)
            in
            check_ok ("trace " ^ format) rc;
            let lines =
              List.length
                (List.filter (fun l -> l <> "") (String.split_on_char '\n' (read_file out)))
            in
            Alcotest.(check string) (format ^ " count")
              (Printf.sprintf "wrote %d %s (distributed run) to %s\n" lines what out)
              (read_file msg))
          [ ("events", "events"); ("spans", "spans") ])

let test_analyze_corrupt_icc () =
  (* A profile whose ICC entry does not parse is a malformed input:
     analyze reports it and exits 1 rather than crashing. *)
  if not (Sys.file_exists exe) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let img = Filename.concat dir "oct.img" in
        check_ok "instrument" (run_cmd [ "instrument"; "--app"; "octarine"; "-o"; img ]);
        check_ok "profile" (run_cmd [ "profile"; img; "--scenario"; "o_oldwp0"; "-o"; img ]);
        let image = Coign_image.Binary_image.load img in
        let config = Option.get image.Coign_image.Binary_image.config in
        let good = Option.get (Coign_image.Config_record.entry config Coign_core.Config_keys.icc) in
        List.iteri
          (fun i corrupt ->
            let bad = Filename.concat dir (Printf.sprintf "bad%d.img" i) in
            Coign_image.Binary_image.save
              {
                image with
                Coign_image.Binary_image.config =
                  Some (Coign_image.Config_record.set_entry config Coign_core.Config_keys.icc corrupt);
              }
              bad;
            Alcotest.(check int) ("analyze exit on corrupt icc " ^ string_of_int i) 1
              (run_cmd [ "analyze"; bad; "-o"; bad ]))
          [
            "calls x\n" ^ good;
            good ^ "0\t1\tIFoo\t1\t0\tx\t5\n";
            good ^ "0\t1\tIFoo\t1\t99\t2\t64\n";
          ])

let test_trace_chrome_and_metrics_parse () =
  if not (Sys.file_exists exe) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let img = Filename.concat dir "ben.img" in
        let chrome = Filename.concat dir "trace.json" in
        let prom = Filename.concat dir "metrics.json" in
        check_ok "instrument" (run_cmd [ "instrument"; "--app"; "benefits"; "-o"; img ]);
        check_ok "trace chrome"
          (run_cmd
             [ "trace"; img; "--scenario"; "b_addone"; "--format"; "chrome"; "-o"; chrome ]);
        let j = Coign_util.Jsonu.parse_exn (read_file chrome) in
        (match Coign_util.Jsonu.member "traceEvents" j with
        | Some (Coign_util.Jsonu.Arr evs) ->
            Alcotest.(check bool) "trace events present" true (List.length evs > 100)
        | _ -> Alcotest.fail "chrome trace lacks traceEvents");
        let cmd =
          Filename.quote_command exe
            [ "metrics"; img; "--scenario"; "b_addone"; "--json" ]
        in
        check_ok "metrics --json" (Sys.command (cmd ^ " > " ^ Filename.quote prom ^ " 2>/dev/null"));
        let m = Coign_util.Jsonu.parse_exn (read_file prom) in
        Alcotest.(check bool) "rte counters exported" true
          (Coign_util.Jsonu.member "coign_rte_intercepted_calls_total" m <> None))

let run_cmd_to out args =
  let cmd = Filename.quote_command exe args in
  Sys.command (cmd ^ " > " ^ Filename.quote out ^ " 2>/dev/null")

let test_load_golden_octarine () =
  let golden = "golden/load_octarine.txt" in
  if not (Sys.file_exists exe && Sys.file_exists golden) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let img = Filename.concat dir "oct.img" in
        let out = Filename.concat dir "load.txt" in
        check_ok "instrument" (run_cmd [ "instrument"; "--app"; "octarine"; "-o"; img ]);
        check_ok "profile wp0" (run_cmd [ "profile"; img; "--scenario"; "o_oldwp0"; "-o"; img ]);
        check_ok "profile tb0" (run_cmd [ "profile"; img; "--scenario"; "o_oldtb0"; "-o"; img ]);
        check_ok "analyze" (run_cmd [ "analyze"; img; "-o"; img ]);
        check_ok "load"
          (run_cmd_to out
             [
               "load"; img; "--sessions"; "200"; "--arrival"; "poisson:1"; "--seed"; "11";
               "--scenarios"; "o_oldwp0,o_oldtb0";
             ]);
        Alcotest.(check string) "load text golden" (read_file golden) (read_file out))

let test_watch_golden_octarine () =
  let golden = "golden/watch_octarine.txt" in
  if not (Sys.file_exists exe && Sys.file_exists golden) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let img = Filename.concat dir "oct.img" in
        let out1 = Filename.concat dir "watch1.txt" in
        let out4 = Filename.concat dir "watch4.txt" in
        check_ok "instrument" (run_cmd [ "instrument"; "--app"; "octarine"; "-o"; img ]);
        let watch_args jobs out =
          run_cmd_to out
            [
              "watch"; img; "--profile"; "o_oldwp0"; "--phases";
              "o_oldwp0;o_oldwp7,o_oldwp7,o_oldwp7;o_oldwp7,o_oldwp7,o_oldwp7";
              "--jobs"; jobs;
            ]
        in
        check_ok "watch" (watch_args "1" out1);
        Alcotest.(check string) "watch text golden" (read_file golden) (read_file out1);
        (* The three regimes evaluate on separate domains without
           changing a byte of the report. *)
        check_ok "watch --jobs 4" (watch_args "4" out4);
        Alcotest.(check string) "jobs byte-identical" (read_file out1) (read_file out4))

let test_load_golden_ingest () =
  let golden = "golden/load_ingest.txt" in
  if not (Sys.file_exists exe && Sys.file_exists golden) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let img = Filename.concat dir "ing.img" in
        let out1 = Filename.concat dir "load1.txt" in
        let out4 = Filename.concat dir "load4.txt" in
        let js = Filename.concat dir "load.json" in
        check_ok "instrument" (run_cmd [ "instrument"; "--app"; "ingest"; "-o"; img ]);
        check_ok "profile strm1" (run_cmd [ "profile"; img; "--scenario"; "i_strm1"; "-o"; img ]);
        check_ok "profile replay" (run_cmd [ "profile"; img; "--scenario"; "i_replay"; "-o"; img ]);
        check_ok "analyze" (run_cmd [ "analyze"; img; "-o"; img ]);
        let args jobs =
          [
            "load"; img; "--sessions"; "200"; "--arrival"; "bursty:30,250,500"; "--seed"; "11";
            "--scenarios"; "i_strm1,i_replay"; "--jobs"; jobs;
          ]
        in
        check_ok "load --jobs 1" (run_cmd_to out1 (args "1"));
        check_ok "load --jobs 4" (run_cmd_to out4 (args "4"));
        Alcotest.(check string) "load text golden" (read_file golden) (read_file out1);
        Alcotest.(check string) "jobs 1 == jobs 4, byte-identical" (read_file out1)
          (read_file out4);
        (* The JSON form parses with the in-repo parser and carries the
           percentile fields. *)
        check_ok "load --json" (run_cmd_to js (args "1" @ [ "--json" ]));
        let j = Coign_util.Jsonu.parse_exn (read_file js) in
        List.iter
          (fun field ->
            Alcotest.(check bool) (field ^ " present") true
              (Coign_util.Jsonu.member field j <> None))
          [ "p50_us"; "p95_us"; "p99_us"; "throughput_per_s"; "availability" ])

(* The three fault-grid presets, for the robustness checks below. *)
let grid_presets = [ "faultsim"; "resilience"; "fleet" ]

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let test_grid_malformed_images () =
  (* A truncated image and a random file are typed decode errors:
     exit 1 with a message naming the image, never an uncaught
     exception (exit 125). *)
  if not (Sys.file_exists exe) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let img = Filename.concat dir "oct.img" in
        check_ok "instrument" (run_cmd [ "instrument"; "--app"; "octarine"; "-o"; img ]);
        check_ok "profile" (run_cmd [ "profile"; img; "--scenario"; "o_oldwp0"; "-o"; img ]);
        let whole = read_file img in
        let truncated = Filename.concat dir "truncated.img" in
        write_file truncated (String.sub whole 0 (String.length whole / 2));
        let random = Filename.concat dir "random.img" in
        let rng = Random.State.make [| 300 |] in
        write_file random (String.init 300 (fun _ -> Char.chr (Random.State.int rng 256)));
        let err = Filename.concat dir "err.txt" in
        List.iter
          (fun bad ->
            List.iter
              (fun cmd ->
                let rc =
                  Sys.command
                    (Filename.quote_command exe [ cmd; bad; "--scenario"; "o_oldwp0" ]
                    ^ " > /dev/null 2> " ^ Filename.quote err)
                in
                let what = Printf.sprintf "%s %s" cmd (Filename.basename bad) in
                Alcotest.(check int) (what ^ " exits 1") 1 rc;
                Alcotest.(check bool) (what ^ " names the malformed image") true
                  (String.starts_with ~prefix:"error: IMAGE: malformed image ("
                     (read_file err)))
              grid_presets)
          [ truncated; random ])

let test_gates_malformed_images () =
  (* lint and verify exit 1 on findings, so an image they cannot read
     is a distinct status: 2, with the shared malformed-image message.
     One image is truncated, the other has a bit flipped in its magic. *)
  if not (Sys.file_exists exe) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let img = Filename.concat dir "oct.img" in
        check_ok "instrument" (run_cmd [ "instrument"; "--app"; "octarine"; "-o"; img ]);
        check_ok "profile" (run_cmd [ "profile"; img; "--scenario"; "o_oldwp0"; "-o"; img ]);
        let whole = read_file img in
        let truncated = Filename.concat dir "truncated.img" in
        write_file truncated (String.sub whole 0 300);
        let flipped = Filename.concat dir "flipped.img" in
        write_file flipped
          (String.mapi (fun i c -> if i = 4 then Char.chr (Char.code c lxor 0x10) else c) whole);
        let err = Filename.concat dir "err.txt" in
        List.iter
          (fun bad ->
            List.iter
              (fun cmd ->
                let rc =
                  Sys.command
                    (Filename.quote_command exe [ cmd; bad ] ^ " > /dev/null 2> "
                   ^ Filename.quote err)
                in
                let what = Printf.sprintf "%s %s" cmd (Filename.basename bad) in
                Alcotest.(check int) (what ^ " exits 2") 2 rc;
                Alcotest.(check bool) (what ^ " names the malformed image") true
                  (String.starts_with ~prefix:"error: IMAGE: malformed image ("
                     (read_file err)))
              [ "lint"; "verify" ])
          [ truncated; flipped ])

let test_grid_rejects_bad_jitter_and_windows () =
  (* Negative or non-finite jitter is refused by the RTE, and
     non-finite window options by the shared front end; both exit 1. *)
  if not (Sys.file_exists exe) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let img = Filename.concat dir "oct.img" in
        let analyzed = Filename.concat dir "oct-an.img" in
        check_ok "instrument" (run_cmd [ "instrument"; "--app"; "octarine"; "-o"; img ]);
        check_ok "profile" (run_cmd [ "profile"; img; "--scenario"; "o_oldwp0"; "-o"; img ]);
        check_ok "analyze" (run_cmd [ "analyze"; img; "-o"; analyzed ]);
        let grid cmd extra =
          let image = if cmd = "faultsim" then analyzed else img in
          run_cmd ([ cmd; image; "--scenario"; "o_oldwp0"; "--jobs"; "1" ] @ extra)
        in
        let rejected cmd extra =
          Alcotest.(check int) (String.concat " " (cmd :: extra) ^ " exits 1") 1 (grid cmd extra)
        in
        List.iter
          (fun cmd ->
            List.iter (fun j -> rejected cmd [ "--jitter=" ^ j ]) [ "-1"; "nan"; "inf" ])
          grid_presets;
        List.iter
          (fun cmd ->
            rejected cmd [ "--partitions-ms=0,nan" ];
            rejected cmd [ "--partitions-ms=inf" ];
            rejected cmd [ "--partition-start-ms=nan" ])
          [ "faultsim"; "resilience" ];
        rejected "fleet" [ "--fault-ms=nan" ];
        rejected "fleet" [ "--fault-ms=inf" ];
        rejected "fleet" [ "--fault-start-ms=nan" ];
        rejected "faultsim" [ "--drops=nan" ])

let suite =
  [
    Alcotest.test_case "cli full pipeline" `Slow test_full_pipeline;
    Alcotest.test_case "cli log/combine flow" `Slow test_log_combine_flow;
    Alcotest.test_case "cli error reporting" `Quick test_error_reporting;
    Alcotest.test_case "cli trace golden" `Slow test_trace_golden;
    Alcotest.test_case "cli events golden" `Slow test_events_golden;
    Alcotest.test_case "cli distributed trace goldens" `Slow test_distributed_trace_goldens;
    Alcotest.test_case "cli trace reports what it wrote" `Slow test_trace_reports_what_it_wrote;
    Alcotest.test_case "cli analyze rejects a corrupt icc entry" `Slow test_analyze_corrupt_icc;
    Alcotest.test_case "cli trace/metrics json" `Slow test_trace_chrome_and_metrics_parse;
    Alcotest.test_case "cli load golden octarine" `Slow test_load_golden_octarine;
    Alcotest.test_case "cli load golden ingest" `Slow test_load_golden_ingest;
    Alcotest.test_case "cli watch golden octarine" `Slow test_watch_golden_octarine;
    Alcotest.test_case "cli grid presets reject malformed images" `Slow
      test_grid_malformed_images;
    Alcotest.test_case "cli lint and verify exit 2 on malformed images" `Slow
      test_gates_malformed_images;
    Alcotest.test_case "cli grid presets reject bad jitter and windows" `Slow
      test_grid_rejects_bad_jitter_and_windows;
  ]
