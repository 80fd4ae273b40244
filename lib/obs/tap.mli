(** Streaming ICC sample tap (paper §6).

    The offline pipeline observes inter-component communication once,
    during profiling; a continuously re-optimizing system needs the
    same observations as a stream out of the running RTE. A tap is a
    sampling valve between the interception layer and any consumer: the
    RTE offers every intercepted call and instantiation, the tap keeps a
    deterministic 1-in-k subsample, and pushes the survivors into a
    caller-supplied sink.

    Like the {!Trace} sinks, everything here is opt-in and inert by
    default: the instrumented code paths take the tap as an option and
    skip all bookkeeping when it is absent, so a detached run is
    bit-identical to an untapped one. Sampling decisions come from the
    tap's own seeded PRNG stream — attaching a tap never perturbs the
    run's jitter, retry, or fault draws. *)

type kind = Call | Create

type obs = {
  ob_at_us : float;  (** virtual time of the observation (sim clock) *)
  ob_kind : kind;
  ob_caller : int;  (** caller classification; [-1] for the main program *)
  ob_callee : int;  (** callee classification *)
  ob_bytes : int;  (** request + reply bytes when measured, else [0] *)
}

type sink = { tap_name : string; push : obs -> unit }

val null_sink : sink

val collector : unit -> sink * (unit -> obs list)
(** An in-memory sink and a function returning the observations pushed
    so far, oldest first. *)

val tee : sink list -> sink
(** Push every observation to each sink, in list order. *)

type t

val create : ?sample_every:int -> ?seed:int64 -> sink -> t
(** A tap keeping on average one observation in [sample_every]
    (default 1: keep everything). Raises [Invalid_argument] when
    [sample_every < 1]. *)

val offer : t -> at_us:float -> kind:kind -> caller:int -> callee:int -> bytes:int -> unit
(** Offer one observation; the tap counts it and pushes it to the sink
    iff the sampler selects it. Equivalent to {!accept} followed (on
    selection) by {!emit}. *)

val accept : t -> bool
(** Count one offered observation and draw the sampling decision for
    it — split out from {!offer} so a caller can defer expensive
    measurement (message-size walks) to the selected observations
    only. A [true] result should be followed by exactly one {!emit}. *)

val emit : t -> at_us:float -> kind:kind -> caller:int -> callee:int -> bytes:int -> unit
(** Push a fully-measured observation that {!accept} selected. The
    {!obs} record is built only when the sink is not {!null_sink}. *)

val offered : t -> int
(** Observations offered so far. *)

val sampled : t -> int
(** Observations that reached the sink. *)

val sink_name : t -> string
val kind_name : kind -> string
