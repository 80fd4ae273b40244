type kind = Call | Create

type obs = {
  ob_at_us : float;
  ob_kind : kind;
  ob_caller : int;
  ob_callee : int;
  ob_bytes : int;
}

type sink = { tap_name : string; push : obs -> unit }

let null_sink = { tap_name = "null"; push = ignore }

let collector () =
  let acc = ref [] in
  ( { tap_name = "collector"; push = (fun o -> acc := o :: !acc) },
    fun () -> List.rev !acc )

let tee sinks =
  { tap_name = "tee"; push = (fun o -> List.iter (fun s -> s.push o) sinks) }

type t = {
  t_sink : sink;
  t_every : int;
  t_rng : Coign_util.Prng.t;
  mutable t_offered : int;
  mutable t_sampled : int;
}

let create ?(sample_every = 1) ?(seed = 0x7A9L) sink =
  if sample_every < 1 then
    invalid_arg "Tap.create: sample_every must be >= 1";
  {
    t_sink = sink;
    t_every = sample_every;
    t_rng = Coign_util.Prng.create seed;
    t_offered = 0;
    t_sampled = 0;
  }

let accept t =
  t.t_offered <- t.t_offered + 1;
  (* Bernoulli 1-in-k from the tap's own seeded stream: which calls are
     sampled is deterministic for a given seed and offer sequence, and
     the decision draws from no PRNG shared with the run itself. *)
  t.t_every = 1 || Coign_util.Prng.int t.t_rng t.t_every = 0

(* The observation record is built only for a sink that reads it. *)
let emit t ~at_us ~kind ~caller ~callee ~bytes =
  t.t_sampled <- t.t_sampled + 1;
  if t.t_sink != null_sink then
    t.t_sink.push
      { ob_at_us = at_us; ob_kind = kind; ob_caller = caller; ob_callee = callee; ob_bytes = bytes }

let offer t ~at_us ~kind ~caller ~callee ~bytes =
  if accept t then emit t ~at_us ~kind ~caller ~callee ~bytes

let offered t = t.t_offered
let sampled t = t.t_sampled
let sink_name t = t.t_sink.tap_name

let kind_name = function Call -> "call" | Create -> "create"
