(** The Coign Runtime Executive (paper §3.1).

    Loaded (conceptually) from the first slot of the rewritten
    application's import table, the RTE provides the low-level services
    the other Coign components build on:

    - {b interception of component instantiation requests} — installed
      as the object runtime's create hook, the analog of inline
      redirection of [CoCreateInstance];
    - {b interface wrapping} — every interface pointer that escapes to
      the application is replaced by a Coign-instrumented handle whose
      dispatch forwards through the original, so every inter-component
      call is trapped;
    - {b shadow stack management} — thread-local contextual information
      across interface calls, read by the instance classifiers;
    - {b configuration access} — construction from an instrumented
      image's config record lives in {!Adps}.

    Two personalities, as in the paper: the profiling RTE (heavyweight
    informer + profiling logger) and the distributed RTE (lightweight
    informer + component factory + null logger). *)

type t

(** {1 Installation} *)

val install_profiling :
  ?loggers:Logger.t list ->
  ?tracer:Coign_obs.Trace.t ->
  ?metrics:Coign_obs.Metrics.registry ->
  classifier:Classifier.t ->
  Coign_com.Runtime.ctx ->
  t
(** Instrument a context for scenario-based profiling. A profiling
    logger feeding {!icc} and {!inst_comm} is always installed;
    [loggers] are additional sinks (e.g. an event recorder).

    [tracer] records a span per intercepted call (category ["call"],
    named [Iface.method]) and per instantiation (category ["create"],
    named by class), timed on {!sim_now} and nested per the shadow
    stack. [metrics] registers the [coign_rte_*] instruments. Both
    default to off, and when off the RTE runs exactly the instructions
    it always did — profiles, stats, and events are bit-identical. *)

type fleet_config = {
  fc_ladder : Fallback.pool_ladder;
      (** pool-elastic ladder; rung 0 is the widest pool, the tail is
          the base two-host ladder at pool size 1 *)
  fc_health : Coign_netsim.Health.policy;
      (** breaker configuration, applied per replica link (one breaker
          per pool host) *)
  fc_max_probe_rounds : int;
      (** failed attempt/probe rounds a single call endures before
          raising [E_unreachable] *)
  fc_split_share : float;
      (** a shard carrying more than this share of the decayed window
          load is hot and gets split, in (0, 1] *)
  fc_check_every : int;  (** observations between hot-shard checks *)
  fc_half_life_us : float;  (** shard-load window decay half-life *)
  fc_host_faults : (int * Coign_netsim.Fault.spec) list;
      (** per-host fault overlays (host index -> spec), replacing
          [dc_faults] on that host's link; hosts not listed keep the
          global spec. Every host link draws its verdicts from
          {!Coign_util.Prng.stream} [8 + host] of [dc_seed], so a pool
          run never perturbs the global streams — except the
          overlay-free link of a one-host pool, which is the run's
          global link and shares the global fault model (stream 2) *)
}

val fleet :
  ?health:Coign_netsim.Health.policy ->
  ?max_probe_rounds:int ->
  ?split_share:float ->
  ?check_every:int ->
  ?half_life_us:float ->
  ?host_faults:(int * Coign_netsim.Fault.spec) list ->
  Fallback.pool_ladder ->
  fleet_config
(** Convenience constructor: {!Coign_netsim.Health.default_policy},
    8 probe rounds, 0.6 split share, a check every 64 observations,
    200 ms half-life, no per-host overlays. Raises on a split share
    outside (0, 1], a non-positive check cadence, or fewer than one
    probe round. *)

type resilience_config = fleet_config
(** Resilience is the one-host pool: the two-host fallback ladder runs
    as a pool ladder whose every rung has one host. *)

val resilience :
  ?health:Coign_netsim.Health.policy ->
  ?max_probe_rounds:int ->
  Fallback.t ->
  resilience_config
(** [fleet] over {!Fallback.pool_of_one}: rung 0 should match the
    installed factory policy so failback restores it.
    {!Coign_netsim.Health.default_policy} and 8 probe rounds unless
    overridden. *)

type watch_config = {
  wc_session : Analysis.Session.t;
      (** the analysis session the re-cut re-prices — its classifier
          must be the one the RTE runs under *)
  wc_net : Coign_netsim.Net_profiler.t;
      (** network profile candidate cuts are priced against *)
  wc_threshold : float;  (** drift fires below this similarity *)
  wc_check_every : int;  (** observations between drift checks *)
  wc_min_dwell_us : float;
      (** minimum virtual time between placement decisions — the
          staleness bound, and half the anti-flap hysteresis *)
  wc_min_window : float;
      (** minimum decayed window mass before drift is trusted *)
  wc_half_life_us : float;  (** window decay half-life *)
  wc_sample_every : int;    (** tap thinning: expect 1-in-k offered *)
  wc_tap : Coign_obs.Tap.sink option;
      (** where sampled observations stream; [None] detaches the tap
          entirely *)
}

val watch :
  ?threshold:float ->
  ?check_every:int ->
  ?min_dwell_us:float ->
  ?min_window:float ->
  ?half_life_us:float ->
  ?sample_every:int ->
  ?tap:Coign_obs.Tap.sink ->
  net:Coign_netsim.Net_profiler.t ->
  Analysis.Session.t ->
  watch_config
(** Convenience constructor: threshold 0.90, a check every 256
    observations, 50 ms dwell, window mass 32, 200 ms half-life,
    1-in-16 tap sampling. Raises on a threshold outside [0, 1] or a
    non-positive check cadence. *)

(** One drift-check outcome in the watch timeline. *)
type watch_action =
  | W_steady        (** no drift (or gated by dwell/mass) *)
  | W_unchanged     (** drifted, but the re-cut chose the installed placement *)
  | W_repartitioned of { wa_migrated : int; wa_left : int; wa_servers : int }
  | W_rejected of int  (** candidate cut failed constraint validation *)

type watch_checkpoint = {
  wk_at_us : float;        (** virtual time of the check *)
  wk_similarity : float;
  wk_window_pairs : int;
  wk_action : watch_action;
}

type distributed_config = {
  dc_factory_policy : Factory.policy;
  dc_network : Coign_netsim.Network.t;   (** ground-truth network *)
  dc_jitter : float;    (** relative stddev of per-message time noise;
                            0 for deterministic runs *)
  dc_seed : int64;      (** master seed; one {!Coign_util.Prng.stream}
                            per stochastic concern (jitter, backoff,
                            fault verdicts), so enabling faults never
                            perturbs the jitter draws *)
  dc_faults : Coign_netsim.Fault.spec option;
                        (** fault model over [dc_network]; [None] (or
                            [Some Fault.zero]) runs fault-free *)
  dc_retry : Coign_netsim.Fault.retry_policy;
                        (** how cross-machine messaging survives drops *)
  dc_watch : watch_config option;
                        (** online drift watch and bounded-staleness
                            re-partitioning; [None] (the default
                            everywhere) runs the static placement, bit
                            for bit. Mutually exclusive with
                            [dc_fleet] — both drive the factory
                            policy — and requires a
                            [Factory.By_classification] policy as the
                            initial placement *)
  dc_fleet : fleet_config option;
                        (** the fallback ladder: a server pool with
                            per-host breakers, hot-shard splitting and
                            pool-elastic failover. Resilience is the
                            one-host pool ({!resilience}). [None] (the
                            default everywhere) runs the retry-only
                            path, bit for bit *)
}

val install_distributed :
  ?loggers:Logger.t list ->
  ?tracer:Coign_obs.Trace.t ->
  ?metrics:Coign_obs.Metrics.registry ->
  classifier:Classifier.t ->
  config:distributed_config ->
  Coign_com.Runtime.ctx ->
  t
(** Realize a distribution: instantiation requests are relocated by the
    component factory, and every cross-machine call is charged its
    DCOM round-trip on the configured network. A cross-machine call
    over a non-remotable interface raises
    [Com_error (E_cannot_marshal _)] — the partitioner's infinite
    edges exist precisely to make this unreachable.

    Under a fault model, every cross-machine message asks the model for
    a verdict; drops cost a timeout and are retried with exponential
    backoff per [dc_retry]. A call whose retries are exhausted raises
    [Com_error (E_unreachable _)] after counting itself; an
    instantiation request whose retries are exhausted degrades
    gracefully — the instance is placed with its creator and the
    fallback counted (see {!stats}).

    With a one-host ladder ({!resilience}), every forwarded call and
    create is routed through a link circuit breaker
    ({!Coign_netsim.Health}). Failures feed the breaker; when it opens, the RTE atomically switches the
    factory to the next rung of the fallback ladder, migrates the
    instances the static remotability facts mark safe, and lets the
    failed call complete locally if the failover co-located its
    endpoints (the underlying call already ran — the fault model only
    judges the communication). Calls that must still cross the dead
    link are stranded: they wait out the cooloff on the virtual clock
    and become the half-open probe; probe success closes the breaker
    and fails back to rung 0, probe failure reopens it with an
    escalated cooloff. Breaker transitions and rung switches are
    logged ({!Event.Breaker_opened} etc.), traced (category
    ["resilience"]) and counted ([coign_resilience_*] metrics and
    {!stats}). With [dc_fleet = None] the run is bit-identical to one
    without the ladder compiled in.

    With [dc_watch], every intercepted call and create also feeds an
    exponentially-decayed observation window ({!Window}) and, when a
    tap sink is attached, a seeded 1-in-k sample stream
    ({!Coign_obs.Tap} on {!Coign_util.Prng.stream} 3 of [dc_seed] —
    attaching or detaching the tap never perturbs jitter, backoff or
    fault draws). Every [wc_check_every] observations the RTE compares
    the window signature against the adopted baseline
    ({!Drift.similarity}); below [wc_threshold] it logs
    {!Event.Drift_detected}, re-prices the analysis session with the
    window's per-pair volumes ([Session.solve ~scale]), lint-validates
    the candidate cut, and — when the placement actually changes —
    atomically switches the factory and migrates the statically-safe
    instances, logging {!Event.Repartitioned} and per-instance
    {!Event.Instance_migrated}. The window snapshot then becomes the
    new baseline and a [wc_min_dwell_us] dwell starts, so the loop
    cannot flap on the shift it just absorbed. Checks run on the
    virtual clock before the observed call is routed, so a re-cut
    applies to the very call that triggered it. With [dc_watch = None]
    the run is bit-identical to one without the watch compiled in.

    With a wider ladder ({!fleet}), the logical server side runs as a
    pool: each component shard lives on the host its rung's
    {!Pool.shape} assigns, every host link carries its own circuit
    breaker ([coign_fleet_*] metrics join the breaker set), and
    reads of a replicated shard survive a host loss by promotion — the
    first healthy replica in ring order takes over the shard
    ({!Event.Replica_promoted}) without touching the rest of the pool.
    A breaker opening on a host whose shards cannot all be promoted
    shrinks the pool one rung ({!Event.Pool_resized}), migrating only
    the statically-safe instances, exactly as a one-host failover
    does; probe success on the degraded host fails back to the widest
    rung. Per-link observation volume feeds a decayed window; a shard
    exceeding [fc_split_share] of the load is split, its migration-safe
    upper components moving to a fresh shard on the least-loaded host
    ({!Event.Shard_split}). All decisions run on the virtual clock off
    seeded streams, so runs are deterministic and independent of
    domain-parallel execution.

    Raises [Invalid_argument] when [dc_jitter] is negative or not
    finite, and when [dc_fleet] and [dc_watch] are both set. *)

val uninstall : t -> unit
(** Remove all hooks; the context reverts to plain local execution. *)

(** {1 Profiling results} *)

val icc : t -> Icc.t
val inst_comm : t -> Inst_comm.t
val classifier : t -> Classifier.t

val classification_of : t -> int -> int
(** Classification assigned to an instance at its creation; -1 for the
    main program or instances created before installation. *)

val instance_classifications : t -> (int * int) list
(** [(instance, classification)] pairs, ascending by instance. *)

val instances_created : t -> int list
(** Instances whose creation this RTE intercepted, ascending. *)

(** {1 Distributed-execution results} *)

val factory : t -> Factory.t option
val comm_us : t -> float
(** Accumulated cross-machine communication time (µs). *)

val sim_now : t -> float
(** The deterministic virtual clock spans are timed on: {!comm_us} plus
    the compute time the application has charged. Never wall time. *)

val remote_calls : t -> int
val remote_bytes : t -> int
val intercepted_calls : t -> int
(** All calls that crossed a Coign wrapper, local or remote. *)

type stats = {
  st_comm_us : float;
  st_remote_calls : int;   (** completed remote calls and forwards *)
  st_remote_bytes : int;
  st_intercepted : int;
  st_retries : int;        (** attempts beyond the first, summed *)
  st_drops : int;          (** messages the fault model ate *)
  st_spikes : int;         (** latency spikes suffered *)
  st_fallbacks : int;      (** instantiations degraded to the creator *)
  st_unreachable : int;    (** calls abandoned with [E_unreachable] *)
  st_fault_us : float;     (** comm time attributable to faults *)
  st_breaker_opens : int;  (** breaker trips (zero without a ladder) *)
  st_breaker_closes : int;
  st_failovers : int;      (** switches down the fallback ladder *)
  st_failbacks : int;      (** switches back up to the primary *)
  st_migrations : int;     (** instances moved live between machines *)
  st_stranded_calls : int; (** calls that waited on an open breaker *)
  st_rescued_calls : int;  (** failed calls completed locally after
                               failover *)
  st_final_rung : int;     (** rung installed when the run ended *)
  st_drift_checks : int;       (** drift checks run (zero without a watch) *)
  st_drift_detections : int;   (** checks that crossed the threshold *)
  st_repartitions : int;       (** placement switches the watch installed *)
  st_watch_migrations : int;   (** instances moved by those switches *)
  st_unchanged_cuts : int;     (** detections whose re-cut kept the placement *)
  st_rejected_cuts : int;      (** candidate cuts failing validation *)
  st_last_similarity : float;  (** similarity at the last check (1 without) *)
}

val stats : t -> stats
(** One-shot snapshot of the run's communication and fault counters. *)

val watch_timeline : t -> watch_checkpoint list
(** Every drift check the watch ran, in virtual-time order (empty
    without a watch). *)

val watch_placement : t -> Analysis.distribution option
(** The distribution the watch currently has installed — the initial
    policy's until the first repartition. *)

val watch_window_signature : t -> Drift.signature option
(** The observation window's decayed signature as of {!sim_now}. *)

val watch_tap_counts : t -> (int * int) option
(** [(offered, sampled)] tap counts, when a watch with an attached tap
    is installed. *)

type fleet_stats = {
  fs_breaker_opens : int;   (** per-host breaker trips, summed *)
  fs_breaker_closes : int;
  fs_failovers : int;       (** switches down the pool ladder *)
  fs_failbacks : int;       (** switches back up to the widest rung *)
  fs_migrations : int;      (** instances moved live between hosts *)
  fs_stranded_calls : int;  (** calls that waited on an open breaker *)
  fs_rescued_calls : int;   (** failed calls completed locally after a
                                pool change co-located their endpoints *)
  fs_promotions : int;      (** replica promotions (shard kept serving
                                through a host loss) *)
  fs_splits : int;          (** hot shards split *)
  fs_resizes : int;         (** pool size changes (up or down) *)
  fs_inter_host_calls : int;  (** server-to-server calls that crossed
                                  pool hosts *)
  fs_final_rung : int;
  fs_final_hosts : int;
  fs_final_shards : int;
}

val fleet_stats : t -> fleet_stats option
(** Pool counters, when a ladder is installed — one host or many. *)

val fleet_shard_table : t -> (int array * int array) option
(** [(shard_of, active_host_of_shard)]: classification -> shard id
    (-1 = client side) and shard -> currently serving host, as of now.
    Copies; mutation-safe. *)

val machine_of_instance : t -> int -> Constraints.location

val call_counts : t -> ((int * int) * int) list
(** Lightweight per-(caller classification, callee classification) call
    counts, maintained in both modes — the "slight additional overhead"
    message counting of paper §6 that lets the runtime recognize when
    usage differs from the profiled scenarios (see {!Drift}). Sorted by
    pair. *)
