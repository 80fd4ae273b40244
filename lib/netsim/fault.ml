open Coign_util

type spec = {
  fs_drop_rate : float;
  fs_spike_rate : float;
  fs_spike_mean_us : float;
  fs_partitions_us : (float * float) list;
  fs_crashes_us : (float * float) list;
}

let zero =
  {
    fs_drop_rate = 0.;
    fs_spike_rate = 0.;
    fs_spike_mean_us = 0.;
    fs_partitions_us = [];
    fs_crashes_us = [];
  }

type t = { seed : int64; sp : spec }

let check_rate what r =
  if not (r >= 0. && r <= 1.) then
    invalid_arg (Printf.sprintf "Fault.make: %s %g not in [0, 1]" what r)

let check_windows what ws =
  List.iter
    (fun (s, e) ->
      if not (e >= s) then
        invalid_arg (Printf.sprintf "Fault.make: %s window [%g, %g) ends before it starts" what s e))
    ws

let make ~seed sp =
  check_rate "drop rate" sp.fs_drop_rate;
  check_rate "spike rate" sp.fs_spike_rate;
  if sp.fs_spike_mean_us < 0. then invalid_arg "Fault.make: negative spike mean";
  check_windows "partition" sp.fs_partitions_us;
  check_windows "crash" sp.fs_crashes_us;
  { seed; sp }

let seed t = t.seed
let spec t = t.sp

type verdict = Drop | Delay of float | Deliver

let rec in_window at = function
  | [] -> false
  | (s, e) :: ws -> (at >= s && at < e) || in_window at ws

(* Verdicts are keyed hashes, not generator draws: splitmix the seed
   with the message's send time, size, and a per-question salt. Order
   independence is what makes fault schedules reproducible across
   domain counts — no stream to race on. *)
let key t ~at_us ~bytes ~salt =
  let k = Prng.mix64 (Int64.logxor t.seed (Int64.bits_of_float at_us)) in
  let k = Prng.mix64 (Int64.logxor k (Int64.of_int bytes)) in
  Prng.mix64 (Int64.logxor k (Int64.of_int salt))

(* Top 53 bits as a float in [0, 1). *)
let u01 k = Int64.to_float (Int64.shift_right_logical k 11) /. 9007199254740992.0

let verdict t ~at_us ~bytes =
  let sp = t.sp in
  if in_window at_us sp.fs_partitions_us || in_window at_us sp.fs_crashes_us then Drop
  else if sp.fs_drop_rate > 0. && u01 (key t ~at_us ~bytes ~salt:1) < sp.fs_drop_rate then Drop
  else if sp.fs_spike_rate > 0. && u01 (key t ~at_us ~bytes ~salt:2) < sp.fs_spike_rate then
    Delay (-.sp.fs_spike_mean_us *. log (1.0 -. u01 (key t ~at_us ~bytes ~salt:3)))
  else Deliver

type retry_policy = {
  rp_timeout_us : float;
  rp_max_attempts : int;
  rp_backoff_us : float;
  rp_backoff_mult : float;
  rp_backoff_jitter : float;
}

let default_retry =
  {
    rp_timeout_us = 10_000.;
    rp_max_attempts = 3;
    rp_backoff_us = 1_000.;
    rp_backoff_mult = 2.;
    rp_backoff_jitter = 0.1;
  }

type outcome = {
  oc_ok : bool;
  oc_time_us : float;
  oc_retries : int;
  oc_drops : int;
  oc_spikes : int;
  oc_fault_us : float;
}

let verdict_of model ~at_us ~bytes =
  match model with None -> Deliver | Some m -> verdict m ~at_us ~bytes

(* Attempt [n] of a call, and the retries after it; top-level and
   mutually recursive, so a call builds no closure. [elapsed] and
   [fault_us] are the time spent so far and the part of it faults
   cost. *)
let rec attempt model retry rng ~now_us ~request_bytes ~reply_bytes ~request_us ~reply_us n
    ~elapsed ~drops ~spikes ~fault_us =
  let at = now_us +. elapsed in
  match verdict_of model ~at_us:at ~bytes:request_bytes with
  | Drop ->
      retry_after model retry rng ~now_us ~request_bytes ~reply_bytes ~request_us ~reply_us n
        ~elapsed ~drops:(drops + 1) ~spikes ~fault_us
  | vq -> (
      (* Reply time before request time: `jittered rq +. jittered rp`
         evaluated its operands right to left, so the pre-fault RTE
         drew reply jitter first. Keeping that order makes fault-free
         runs bit-identical to the old code path at any jitter. *)
      let rp = reply_us () in
      let rq = request_us () in
      let dq = match vq with Delay d -> d | _ -> 0. in
      match verdict_of model ~at_us:(at +. rq +. dq) ~bytes:reply_bytes with
      | Drop ->
          retry_after model retry rng ~now_us ~request_bytes ~reply_bytes ~request_us ~reply_us
            n ~elapsed ~drops:(drops + 1) ~spikes ~fault_us
      | vp ->
          let dp = match vp with Delay d -> d | _ -> 0. in
          let spikes_here =
            (match vq with Delay _ -> 1 | _ -> 0) + (match vp with Delay _ -> 1 | _ -> 0)
          in
          let spike_us = dq +. dp in
          {
            oc_ok = true;
            oc_time_us = elapsed +. (rq +. rp) +. spike_us;
            oc_retries = n - 1;
            oc_drops = drops;
            oc_spikes = spikes + spikes_here;
            oc_fault_us = fault_us +. spike_us;
          })

(* A message of attempt [n] was lost: give up after the last attempt,
   else time out, back off and try again. *)
and retry_after model retry rng ~now_us ~request_bytes ~reply_bytes ~request_us ~reply_us n
    ~elapsed ~drops ~spikes ~fault_us =
  if n >= max 1 retry.rp_max_attempts then
    {
      oc_ok = false;
      oc_time_us = elapsed +. retry.rp_timeout_us;
      oc_retries = n - 1;
      oc_drops = drops;
      oc_spikes = spikes;
      oc_fault_us = fault_us +. retry.rp_timeout_us;
    }
  else
    let backoff =
      let base = retry.rp_backoff_us *. (retry.rp_backoff_mult ** float_of_int (n - 1)) in
      if retry.rp_backoff_jitter = 0. then base
      else base *. (1. +. (retry.rp_backoff_jitter *. Prng.float rng 1.0))
    in
    attempt model retry rng ~now_us ~request_bytes ~reply_bytes ~request_us ~reply_us (n + 1)
      ~elapsed:(elapsed +. retry.rp_timeout_us +. backoff)
      ~drops ~spikes
      ~fault_us:(fault_us +. retry.rp_timeout_us +. backoff)

let call ?model ~retry ~rng ~now_us ~request_bytes ~reply_bytes ~request_us
    ~reply_us () =
  attempt model retry rng ~now_us ~request_bytes ~reply_bytes ~request_us ~reply_us 1
    ~elapsed:0. ~drops:0 ~spikes:0 ~fault_us:0.
