(** Fault-grid simulation: one scenario under every (engine × fault)
    pair of a grid.

    A cell runs the scenario once under the image's distribution with
    one runtime engine facing one fault, and records the execution
    stats. The engines are the retry-only distributed RTE, the
    resilience ladder (circuit breaker + precomputed fallback rungs),
    and a replicated k-host server pool; the faults are a per-message
    drop rate plus an optional outage window, over the whole network or
    over one pool host's link. The three [coign] grid commands are
    presets of this one driver:

    - [faultsim]: the retry-only engine over a (drop rate × partition
      length) grid, on the image's stored distribution;
    - [resilience]: retry-only beside the resilience ladder over the
      same grid;
    - [fleet]: the resilience ladder beside pools of 1..k hosts, under
      no fault, a single-host crash and a global partition.

    Every cell is seeded from the same master seed, fault verdicts are
    pure hashes of (seed, time, size), the breaker draws no randomness
    and ladders are immutable, so a grid is reproducible run to run and
    across any number of worker domains. *)

type engine =
  | Retry  (** the retry-only distributed RTE *)
  | Resilience  (** {!Coign_core.Rte.resilience} over the base ladder *)
  | Pool of int
      (** {!Coign_core.Rte.fleet} over
          {!Coign_core.Fallback.pool_ladder} with this many hosts *)

type scope =
  | Global  (** the window partitions the whole network *)
  | Host0
      (** the window partitions pool host 0's link only (a host crash),
          while the drop rate stays network-wide. A one-host engine has
          no other link, so for [Retry], [Resilience] and [Pool 1] this
          is the [Global] window *)

type fault = {
  f_drop_rate : float;  (** per-message drop probability, in [\[0, 1\]] *)
  f_start_us : float;  (** where the outage window opens *)
  f_length_us : float;  (** outage window length; 0 = no window *)
  f_scope : scope;
}

type outcome = {
  o_stats : Coign_core.Adps.exec_stats;
  o_pool : Coign_core.Rte.fleet_stats option;  (** [None] for [Retry] *)
}

type t = {
  g_network : Coign_netsim.Network.t;
  g_seed : int64;
  g_replicas : int;
  g_ladder : Coign_core.Fallback.t option;
      (** the base ladder, when a ladder engine ran *)
  g_clean : Coign_core.Adps.exec_stats;
      (** the retry-only engine without faults — the denominator of
          {!availability} and {!served} *)
  g_engines : engine list;
  g_faults : fault list;
  g_cells : ((engine * fault) * outcome) list;
      (** every pair, engine outer, fault inner *)
}

val run :
  ?pool:Coign_util.Parallel.t ->
  ?profiler:Coign_obs.Profiler.t ->
  ?seed:int64 ->
  ?jitter:float ->
  ?health:Coign_netsim.Health.policy ->
  ?replicas:int ->
  engines:engine list ->
  faults:fault list ->
  image:Coign_image.Binary_image.t ->
  registry:Coign_com.Runtime.registry ->
  network:Coign_netsim.Network.t ->
  Coign_core.Adps.scenario ->
  t
(** Execute the grid. With only [Retry] engines the cells run on the
    image's stored distribution, which must be in distributed mode.
    With a ladder engine the image must hold an accumulated profile
    instead: one analysis session, priced on the exact network model,
    cuts the primary distribution every cell installs (retry-only cells
    included), the base ladder and one pool ladder per pool size
    ([replicas], default 2, live replicas per shard). [health]
    configures every engine's breakers.

    Pairs that execute the same run — equal after a one-host engine
    folds a [Host0] window into the network, and after windows of
    length 0 are dropped — run once; all distinct runs, plus the clean
    run, go through one [Parallel.map] on [pool]. The grid is identical
    with or without a [pool]. [profiler] times the analysis under its
    usual phases and every execution under ["grid_cell"]. *)

val outcome : t -> engine -> fault -> outcome
(** The cell of one pair of the grid. Raises [Not_found] otherwise. *)

val availability : t -> Coign_core.Adps.exec_stats -> float
(** Intercepted calls as a fraction of the clean run's, capped at 1;
    1 when the clean run intercepted nothing. *)

val served : t -> Coign_core.Adps.exec_stats -> float
(** Remote calls as a fraction of the clean run's, capped at 1; 1 when
    the clean run made none. *)

(** {1 Presets}

    Each preset is an engine list and a fault list for {!run}, and a
    printer pair for the resulting grid. JSON floats print with
    [%.17g], so equal grids serialize byte-identically. *)

val drop_partition_faults :
  drop_rates:float list -> partitions_us:float list -> start_us:float -> fault list
(** The [faultsim] / [resilience] fault axis: network-wide faults,
    drop rate outer, partition length inner, every window opening at
    [start_us]. *)

val pp_faultsim : Format.formatter -> t -> unit
(** The [Retry] cells, one row per fault: the [coign faultsim] table. *)

val faultsim_json : t -> string

val pp_resilience : Format.formatter -> t -> unit
(** [Retry] beside [Resilience], one row per fault, below the base
    ladder: the [coign resilience] table. *)

val resilience_json : t -> string

val fleet_engines : pools:int -> engine list
(** [Resilience] and [Pool 1] to [Pool pools]. *)

val fleet_faults : start_us:float -> length_us:float -> fault list
(** The fleet regimes: clean (no fault), crash (the window on host 0)
    and partition (the window on the whole network). *)

val pp_fleet : Format.formatter -> t -> unit
(** Each pool beside [Resilience], one row per (pool, regime): the
    [coign fleet] table. Pool-1 rows check that [Pool 1] reproduces
    [Resilience] bit for bit (the [ident] column). *)

val fleet_json : t -> string
