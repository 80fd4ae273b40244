(* The Coign benchmark.

   coignbench --workload partition|adapt|serve|load --seed N --seconds S
              --trace 0|1 [--out DIR]

   Every workload is a closed loop with one client: the next job starts
   when the previous one returns, on one thread, with no domain pool.
   Set-up (instrumenting, profiling and analyzing the applications,
   building ladders and reference outputs) runs five times before the
   timed loop and is reported as its median, setup_s. The loop then runs
   whole passes of the workload's seeded job list until --seconds have
   passed, checking every job's outputs. Wall times are reported at
   reference speed (see "Machine speed" below).

   --trace 0 prints the end-to-end metrics of the named workload.
   --trace 1 prints the per-layer metrics: every workload runs for a
   quarter of --seconds, each job once untraced and once traced; spans
   around each public call give each layer's self time and share of job
   wall time, and the traced/untraced job time ratio is the tracing
   overhead.
   The spans of each workload are written to DIR/<workload>.trace.json
   (Chrome trace format) and its self-time table to
   DIR/<workload>.layers.txt.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}. *)

open Coign_util
open Workloads

let now = Unix.gettimeofday

(* The percentile job_tail_ms reports, per workload: the highest of p90,
   p95, p98 and p99 that leaves at least 25 jobs beyond it in a 20 s run,
   with a 20% margin for slower machines (fewer samples beyond it make the
   tail unsteady from run to run). It is fixed, so a faster program cannot
   move it to a higher one. *)
let tail_percentile = function
  | "partition" -> 95.
  | "adapt" -> 98.
  | "serve" -> 99.
  | _ -> 95.

(* ------------------------------------------------------------------ *)
(* Machine speed                                                       *)

(* A shared virtual machine changes speed by a third and more over
   seconds to minutes, alike for every workload: on a 2-vCPU cloud VM raw
   job times of identical runs spread 25-35% from run to run. A fixed kernel
   of the kind of work the library does (string hashing, list building,
   sorting) runs between jobs every [kernel_every_s] and around each
   set-up, outside the timed jobs. Every wall time is reported at
   reference speed: scaled by [kernel_nominal_ms] over the mean of the
   kernel times just before and after it (per-layer times: over the
   run's mean kernel time). Runs print the raw figures too. *)
let kernel_nominal_ms = 5.
let kernel_every_s = 0.1

let kernel () =
  let t0 = now () in
  let h = Hashtbl.create 1024 in
  for i = 0 to 9_999 do
    Hashtbl.replace h (string_of_int (i * 7919 mod 100_003)) i
  done;
  let l = List.init 10_000 (fun i -> float_of_int (i * 7919 mod 10_007)) in
  ignore (Sys.opaque_identity (List.sort Float.compare l, Hashtbl.length h));
  (now () -. t0) *. 1e3

type speed = {
  mutable samples : float list;  (** kernel times in ms, newest first *)
  mutable k_runs : int;
  mutable k_last : float;
}

let speed () = { samples = []; k_runs = 0; k_last = 0. }

let sample sp =
  let ms = kernel () in
  sp.samples <- ms :: sp.samples;
  sp.k_runs <- sp.k_runs + 1;
  sp.k_last <- now ();
  ms

let maybe_sample sp = if now () -. sp.k_last >= kernel_every_s then ignore (sample sp)

let kernel_mean_ms sp =
  List.fold_left ( +. ) 0. sp.samples /. float_of_int (max 1 sp.k_runs)

(* Multiply a wall time by this to get it at reference speed. *)
let scale sp = kernel_nominal_ms /. kernel_mean_ms sp

(* The same, local to a job that ran after the [i]-th kernel sample: the
   mean of the samples just before and just after it. *)
let local_scale sp =
  let a = Array.of_list (List.rev sp.samples) in
  let n = Array.length a in
  fun i -> kernel_nominal_ms /. ((a.(max 0 (i - 1)) +. a.(min i (n - 1))) /. 2.)

(* ------------------------------------------------------------------ *)
(* Running passes                                                      *)

type tally = {
  mutable times : (float * int) list;  (** job ms, kernel samples before it *)
  mutable attempted : int;
  mutable failed : int;
  mutable ops : int;
  mutable messages : string list;
}

let tally () = { times = []; attempted = 0; failed = 0; ops = 0; messages = [] }

let run_job job =
  match job () with
  | o -> o
  | exception e -> { comm_us = 0.; ops = 0; failures = [ "raised " ^ Printexc.to_string e ] }

let run_one ?trace_id sp t job =
  let t0 = now () in
  let o =
    match trace_id with
    | None -> run_job job
    | Some id -> Tracing.job ~trace_id:id "job" (fun () -> run_job job)
  in
  let dt = now () -. t0 in
  t.times <- (dt *. 1e3, sp.k_runs) :: t.times;
  t.attempted <- t.attempted + 1;
  t.ops <- t.ops + o.ops;
  if o.failures <> [] then begin
    t.failed <- t.failed + 1;
    if List.length t.messages < 10 then t.messages <- o.failures @ t.messages
  end;
  (dt, o)

(* One untraced pass over the job list, sampling the machine's speed
   between jobs; returns the sum of the jobs' modelled communication. *)
let pass sp t (inst : instance) =
  Array.fold_left
    (fun acc job ->
      let comm = (snd (run_one sp t job)).comm_us in
      maybe_sample sp;
      acc +. comm)
    0. inst.jobs

let add_setup_failures t (inst : instance) =
  List.iter
    (fun m ->
      t.attempted <- t.attempted + 1;
      t.failed <- t.failed + 1;
      t.messages <- ("set-up: " ^ m) :: t.messages)
    inst.setup_failures

let median xs = Stats.percentile (Array.of_list xs) 50.

(* ------------------------------------------------------------------ *)
(* Output                                                               *)

type metric = { m_name : string; m_unit : string; m_value : float; m_note : string }

let metric ?(note = "") m_name m_unit m_value = { m_name; m_unit; m_value; m_note = note }

let finite v = if Float.is_finite v then v else 0.

let result_json t metrics =
  Jsonu.to_string
    (Jsonu.Obj
       [
         ("correct", Jsonu.Bool (t.failed = 0));
         ("attempted", Jsonu.Int t.attempted);
         ("failed", Jsonu.Int t.failed);
         ( "metrics",
           Jsonu.Obj
             (List.map
                (fun m ->
                  ( m.m_name,
                    Jsonu.Obj [ ("value", Jsonu.Float (finite m.m_value)); ("unit", Jsonu.Str m.m_unit) ]
                  ))
                metrics) );
       ])

let print_metrics metrics =
  List.iter
    (fun m ->
      Printf.printf "  %-40s %16.6g %-6s %s\n" m.m_name m.m_value m.m_unit m.m_note)
    metrics

let print_failures t =
  Printf.printf "failed: %d of %d attempted (failed_frac %.6g)\n" t.failed t.attempted
    (float_of_int t.failed /. float_of_int (max 1 t.attempted));
  List.iter (Printf.printf "  FAILED CHECK: %s\n") (List.rev t.messages)

(* Lines of lib/ and bin/ OCaml sources: informational, not gated. *)
let code_lines () =
  let rec walk dir =
    if not (Sys.file_exists dir && Sys.is_directory dir) then 0
    else
      Array.fold_left
        (fun acc name ->
          let path = Filename.concat dir name in
          if Sys.is_directory path then acc + walk path
          else if Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli" then
            acc + List.length (In_channel.with_open_text path In_channel.input_lines)
          else acc)
        0 (Sys.readdir dir)
  in
  walk "lib" + walk "bin"

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* ------------------------------------------------------------------ *)
(* --trace 0: end-to-end metrics of one workload                       *)

let setup_reps = 5

(* A set-up that raises leaves nothing to time: exit without a result. *)
let guarded setup ~seed =
  try setup ~seed
  with e ->
    prerr_endline ("coignbench: set-up failed: " ^ Printexc.to_string e);
    exit 3

let end_to_end ~name ~setup ~seed ~seconds =
  (* Each set-up is scaled by the kernel times just before and after it. *)
  let inst = ref None in
  let sp_setup = speed () in
  let before = ref (sample sp_setup) in
  let setup_raw, setup_scaled =
    List.split
      (List.init setup_reps (fun _ ->
           (* Free the previous set-up, which a user would not have run,
              so repeating it does not count in peak_heap_mb. *)
           inst := None;
           Gc.compact ();
           let t0 = now () in
           inst := Some (guarded setup ~seed);
           let raw = now () -. t0 in
           let after = sample sp_setup in
           let scaled = raw *. kernel_nominal_ms /. ((!before +. after) /. 2.) in
           before := after;
           (raw, scaled)))
  in
  let inst = Option.get !inst in
  let t = tally () in
  add_setup_failures t inst;
  let jobs = Array.length inst.jobs in
  let sp = speed () in
  ignore (sample sp);
  let t_start = now () in
  let comm = pass sp t inst in
  while now () -. t_start < seconds do
    ignore (pass sp t inst)
  done;
  (* Each job is scaled by the kernel samples around it. *)
  let local = local_scale sp in
  let raw = Array.of_list (List.map fst t.times) in
  let scaled = Array.of_list (List.map (fun (ms, i) -> ms *. local i) t.times) in
  let seconds_of a = Array.fold_left ( +. ) 0. a /. 1e3 in
  let job_s = seconds_of scaled in
  let done_jobs = Array.length raw in
  let p = tail_percentile name in
  let beyond = int_of_float (float_of_int done_jobs *. (100. -. p) /. 100.) in
  Printf.printf "workload %s, seed %Ld: %d jobs (%d per pass) in %.3f s of job time\n" name seed
    done_jobs jobs (seconds_of raw);
  Printf.printf "speed kernel: %.4f ms mean over %d runs in the loop, %.4f ms around set-up \
                 (reference %.1f ms)\n"
    (kernel_mean_ms sp) sp.k_runs (kernel_mean_ms sp_setup) kernel_nominal_ms;
  Printf.printf "raw: setup_s %.6g, jobs_per_s %.6g, job_p50_ms %.6g, job_tail_ms %.6g\n"
    (median setup_raw)
    (float_of_int done_jobs /. seconds_of raw)
    (Stats.percentile raw 50.) (Stats.percentile raw p);
  Printf.printf "lib+bin lines: %d (informational)\n" (code_lines ());
  print_failures t;
  let metrics =
    [
      metric "setup_s" "s" (median setup_scaled)
        ~note:(Printf.sprintf "median of %d set-ups" setup_reps);
      metric "jobs_per_s" "1/s" (float_of_int done_jobs /. job_s);
      metric "job_p50_ms" "ms" (Stats.percentile scaled 50.);
      metric "job_tail_ms" "ms" (Stats.percentile scaled p)
        ~note:(Printf.sprintf "p%g, %d of %d jobs beyond it" p beyond done_jobs);
      metric "ops_per_s" "1/s" (float_of_int t.ops /. job_s);
      metric "comm_ms" "ms" (comm /. float_of_int jobs /. 1e3)
        ~note:"modelled, mean per job over one pass";
      metric "peak_heap_mb" "MB" (peak_heap_mb ());
    ]
  in
  print_metrics metrics;
  print_endline (result_json t metrics)

(* ------------------------------------------------------------------ *)
(* --trace 1: per-layer metrics of every workload                       *)

let write_file path s = Out_channel.with_open_text path (fun oc -> output_string oc s)

let layer_table name rows ~job_us =
  let b = Buffer.create 1024 in
  Printf.bprintf b "%s: self time by layer span (share of job wall time %.1f ms)\n" name
    (job_us /. 1e3);
  Printf.bprintf b "  %-24s %8s %12s %12s %8s\n" "span" "count" "total ms" "self ms" "share";
  List.iter
    (fun (r : Tracing.row) ->
      Printf.bprintf b "  %-24s %8d %12.3f %12.3f %7.2f%%\n" r.Tracing.r_name r.Tracing.r_count
        (r.Tracing.r_total_us /. 1e3) (r.Tracing.r_self_us /. 1e3)
        (100. *. r.Tracing.r_self_us /. job_us))
    rows;
  Buffer.contents b

let find rows name = List.find_opt (fun (r : Tracing.row) -> r.Tracing.r_name = name) rows

let total_us rows name = match find rows name with Some r -> r.Tracing.r_total_us | None -> 0.

let mean_us rows name =
  match find rows name with
  | Some r when r.Tracing.r_count > 0 -> r.Tracing.r_total_us /. float_of_int r.Tracing.r_count
  | _ -> 0.

let phase_us name =
  match
    List.find_opt
      (fun (p : Coign_obs.Profiler.phase) -> p.Coign_obs.Profiler.ph_name = name)
      (Coign_obs.Profiler.phases Tracing.phases)
  with
  | Some p when p.Coign_obs.Profiler.ph_count > 0 ->
      p.Coign_obs.Profiler.ph_total_s *. 1e6 /. float_of_int p.Coign_obs.Profiler.ph_count
  | _ -> 0.

let ratio a b = if b = 0. then 0. else a /. b
let c = Tracing.counted

(* The metrics each workload's spans and counts yield; [jobs] is the
   number of traced jobs. *)
let layer_metrics name rows ~jobs =
  let per_job k = ratio (c k) jobs in
  match name with
  | "partition" ->
      let bare = c "profile.bare_us" in
      [
        metric "rte.profile_ns_per_call" "ns" (ratio (total_us rows "rte.profile" *. 1e3) (c "profile.calls"));
        metric "rte.profiling_overhead" "ratio"
          (ratio (total_us rows "rte.profile" -. bare) (bare +. c "profile.compute_us"))
          ~note:"paper 3.2 bound <= 0.85";
        metric "profile.calls" "count" (per_job "profile.calls");
        metric "profile.bytes" "bytes" (per_job "profile.bytes");
        metric "profile.classifications" "count" (per_job "profile.classifications");
        metric "image.encode_us" "us" (mean_us rows "image.encode");
        metric "image.decode_us" "us" (mean_us rows "image.decode");
        metric "image.bytes" "bytes"
          (ratio (c "image.bytes")
             (match find rows "image.encode" with
             | Some r -> float_of_int r.Tracing.r_count
             | None -> 0.));
      ]
  | "adapt" ->
      [
        metric "analysis.profile_load_us" "us" (phase_us "profile_load");
        metric "analysis.graph_build_us" "us" (phase_us "icc_graph_build");
        metric "analysis.pricing_us" "us" (phase_us "pricing");
        metric "analysis.cut_us" "us" (phase_us "cut");
        metric "analysis.validate_us" "us" (mean_us rows "analysis.validate");
        metric "analysis.recut_us" "us" (mean_us rows "analysis.recut");
        metric "analysis.solves" "count" (per_job "analysis.solves");
        metric "fallback.ladder_us" "us" (mean_us rows "fallback.ladder");
        metric "fallback.rungs" "count" (per_job "fallback.rungs");
        metric "verify.explore_us" "us" (mean_us rows "verify.explore");
        metric "verify.states" "count" (per_job "verify.states");
      ]
  | "serve" ->
      let ns e =
        ratio (total_us rows ("rte.execute." ^ e) *. 1e3) (c ("serve.intercepted." ^ e))
      in
      let per_engine e k = ratio (c k) (c ("serve.jobs." ^ e)) in
      let bare = c "serve.retry.bare_us" in
      List.map
        (fun e -> metric ("rte.dist_ns_per_call." ^ engine_name e) "ns" (ns (engine_name e)))
        engines
      @ [
          metric "rte.distribution_overhead" "ratio"
            (ratio (total_us rows "rte.execute.retry" -. bare) (bare +. c "serve.retry.compute_us"))
            ~note:"paper 3.2 bound < 0.03";
          metric "watch.overhead" "ratio" (ratio (ns "watch") (ns "retry") -. 1.)
            ~note:"quiet watch 0.38 in BENCH_10";
          metric "watch.drift_checks" "count" (per_engine "watch" "watch.drift_checks");
          metric "watch.repartitions" "count" (per_engine "watch" "watch.repartitions");
          metric "obs.overhead" "ratio" (ratio (ns "observed") (ns "retry") -. 1.)
            ~note:"null sink 0.035 in BENCH_7";
          metric "netsim.retries" "count" (per_job "netsim.retries");
          metric "netsim.drops" "count" (per_job "netsim.drops");
          metric "netsim.retry_ratio" "ratio" (ratio (c "netsim.retries") (c "rte.remote_calls"));
          metric "rte.remote_calls" "count" (per_job "rte.remote_calls");
          metric "resilience.breaker_opens" "count"
            (per_engine "resilience" "resilience.breaker_opens");
          metric "resilience.failovers" "count" (per_engine "resilience" "resilience.failovers");
          metric "fleet.promotions" "count" (per_engine "fleet" "fleet.promotions");
          metric "fleet.splits" "count" (per_engine "fleet" "fleet.splits");
          metric "rte.migrations" "count" (per_job "rte.migrations");
          metric "rte.served_frac" "ratio"
            (ratio (c "serve.intercepted") (c "serve.clean_intercepted"));
        ]
  | _ ->
      [
        metric "loadsim.arrivals_ns_per_session" "ns"
          (ratio (total_us rows "loadsim.gen_arrivals" *. 1e3) (c "loadsim.sessions"));
        metric "loadsim.simulate_ns_per_op" "ns"
          (ratio (total_us rows "loadsim.simulate" *. 1e3) (c "loadsim.simulated_ops"));
        metric "loadsim.ops" "count" (per_job "loadsim.ops");
      ]

let traced ~seed ~seconds ~out =
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let t = tally () in
  let sp = speed () in
  ignore (sample sp);
  calibrate_bare ~reps:15;
  let bare_total = Hashtbl.fold (fun _ us acc -> acc +. us) bare_us 0. in
  let bare_calls_total = Hashtbl.fold (fun _ n acc -> acc + n) bare_calls 0 in
  let lines = code_lines () in
  let per_workload =
    List.concat_map
      (fun (name, setup) ->
        let spans = Tracing.collect () in
        let inst = guarded setup ~seed in
        add_setup_failures t inst;
        let jobs = Array.length inst.jobs in
        (* Each job runs once untraced and once traced, in alternating
           order, so warm caches favour neither side. *)
        let plain = ref 0. and with_spans = ref 0. in
        let t_start = now () in
        let k = ref 0 in
        while !k = 0 || now () -. t_start < seconds /. 4. do
          Array.iteri
            (fun i job ->
              let untraced () = plain := !plain +. fst (run_one sp t job) in
              let traced () =
                with_spans := !with_spans +. fst (run_one ~trace_id:((!k * jobs) + i) sp t job)
              in
              if (!k + i) mod 2 = 0 then (untraced (); traced ()) else (traced (); untraced ());
              maybe_sample sp)
            inst.jobs;
          incr k
        done;
        inst.calibrate ();
        let all = spans () in
        write_file (Filename.concat out (name ^ ".trace.json")) (Coign_obs.Trace.chrome_json all);
        let job_spans =
          List.filter (fun (s : Coign_obs.Span.t) -> s.Coign_obs.Span.sp_trace < 1_000_000) all
        in
        let rows = Tracing.self_times all in
        let job_rows = Tracing.self_times job_spans in
        let job_us = total_us job_rows "job" in
        let table = layer_table name job_rows ~job_us in
        write_file (Filename.concat out (name ^ ".layers.txt")) table;
        print_string table;
        let overhead = (!with_spans /. !plain) -. 1. in
        Printf.printf "  tracing overhead: %+.2f%% (traced vs untraced job time, %d jobs each)\n"
          (100. *. overhead) (!k * jobs);
        layer_metrics name rows ~jobs:(float_of_int (!k * jobs))
        @ [ metric ("trace.overhead." ^ name) "ratio" overhead ]
        @ List.map
            (fun (r : Tracing.row) ->
              metric
                (Printf.sprintf "share.%s.%s" name r.Tracing.r_name)
                "ratio" (ratio r.Tracing.r_self_us job_us))
            (List.sort
               (fun (a : Tracing.row) b -> compare a.Tracing.r_name b.Tracing.r_name)
               job_rows))
      Workloads.all
  in
  (* Per-layer times, like the end-to-end ones, are at reference speed. *)
  let at_reference m =
    if m.m_unit = "ns" || m.m_unit = "us" then { m with m_value = m.m_value *. scale sp } else m
  in
  let metrics =
    List.map at_reference
      (metric "com.bare_ns_per_call" "ns" (ratio (bare_total *. 1e3) (float_of_int bare_calls_total))
      :: per_workload)
    @ [
        metric "bench.kernel_ms" "ms" (kernel_mean_ms sp)
          ~note:(Printf.sprintf "raw speed kernel time; reference %.1f ms" kernel_nominal_ms);
        metric "code.lib_bin_lines" "count" (float_of_int lines) ~note:"informational";
      ]
  in
  print_failures t;
  print_metrics metrics;
  print_endline (result_json t metrics)

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let out = ref ".bench_out" in
  let usage =
    "coignbench --workload partition|adapt|serve|load --seed N --seconds S --trace 0|1 [--out DIR]"
  in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the job list");
      ("--seconds", Arg.Set_float seconds, "S length of the timed loop");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--out", Arg.Set_string out, "DIR where traced runs write spans and tables");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let bad msg =
    prerr_endline ("coignbench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  let setup =
    match List.assoc_opt !workload Workloads.all with
    | Some setup -> setup
    | None -> bad ("unknown workload " ^ !workload)
  in
  if not (!seconds > 0.) then bad "--seconds must be positive";
  let seed = Int64.of_int !seed in
  match !trace with
  | 0 -> end_to_end ~name:!workload ~setup ~seed ~seconds:!seconds
  | 1 -> traced ~seed ~seconds:!seconds ~out:!out
  | _ -> bad "--trace must be 0 or 1"
