(* Wall-clock spans around the benchmark's own calls into each layer's
   public functions, plus per-job counts taken at the same boundaries.

   Tracing is off unless a job runs under [job]: [span] is then a single
   option test, so untraced runs time the same instructions the layers
   execute. Spans reuse Coign_obs.Trace (one tracer per job, one trace id
   per job, all feeding one in-memory collector) with wall-clock
   timestamps instead of the simulation clock. *)

open Coign_obs

let epoch = Unix.gettimeofday ()
let now_us () = (Unix.gettimeofday () -. epoch) *. 1e6

let current : Trace.t option ref = ref None
let sink = ref Trace.null_sink
let counts : (string, float) Hashtbl.t = Hashtbl.create 64
let phases = Profiler.create ()

(* Start a fresh collection (spans, counts, analysis phases); the result
   reads back the spans collected since. *)
let collect () =
  let s, spans = Trace.collector () in
  sink := s;
  Hashtbl.reset counts;
  Profiler.reset phases;
  spans

(* The phase profiler to pass as [?profiler], only inside traced jobs. *)
let profiler () = Option.map (fun _ -> phases) !current

let span name f =
  match !current with
  | None -> f ()
  | Some tr -> Trace.with_span tr ~name ~cat:"layer" ~clock:now_us f

let count name v =
  if Option.is_some !current then
    Hashtbl.replace counts name (v +. Option.value ~default:0. (Hashtbl.find_opt counts name))

let counted name = Option.value ~default:0. (Hashtbl.find_opt counts name)

(* Run [f] as one traced job: a root span [name] in its own trace. *)
let job ~trace_id name f =
  let tr = Trace.create ~trace_id !sink in
  current := Some tr;
  Fun.protect ~finally:(fun () -> current := None) (fun () -> span name f)

type row = { r_name : string; r_count : int; r_total_us : float; r_self_us : float }

(* Self time: a span's duration minus the part its direct children
   cover (children never overlap: the benchmark is single-threaded). *)
let self_times (spans : Span.t list) =
  let child_us = Hashtbl.create 1024 in
  List.iter
    (fun (s : Span.t) ->
      match s.Span.sp_parent with
      | Some p ->
          let k = (s.Span.sp_trace, p) in
          Hashtbl.replace child_us k
            (s.Span.sp_dur_us +. Option.value ~default:0. (Hashtbl.find_opt child_us k))
      | None -> ())
    spans;
  let rows = Hashtbl.create 32 in
  List.iter
    (fun (s : Span.t) ->
      let kids =
        Option.value ~default:0. (Hashtbl.find_opt child_us (s.Span.sp_trace, s.Span.sp_id))
      in
      let r =
        Option.value
          ~default:{ r_name = s.Span.sp_name; r_count = 0; r_total_us = 0.; r_self_us = 0. }
          (Hashtbl.find_opt rows s.Span.sp_name)
      in
      Hashtbl.replace rows s.Span.sp_name
        {
          r with
          r_count = r.r_count + 1;
          r_total_us = r.r_total_us +. s.Span.sp_dur_us;
          r_self_us = r.r_self_us +. s.Span.sp_dur_us -. kids;
        })
    spans;
  List.sort
    (fun a b -> Float.compare b.r_self_us a.r_self_us)
    (Hashtbl.fold (fun _ r acc -> r :: acc) rows [])
