open Coign_util
open Coign_idl
open Coign_com
open Coign_netsim
module Trace = Coign_obs.Trace
module Metrics = Coign_obs.Metrics
module Tap = Coign_obs.Tap

(* Registry instruments, resolved once at install time so the hot path
   never does a name lookup. *)
type instruments = {
  i_intercepted : Metrics.counter;
  i_instantiations : Metrics.counter;
  i_remote_calls : Metrics.counter;
  i_remote_bytes : Metrics.counter;
  i_comm_us : Metrics.counter;
  i_retries : Metrics.counter;
  i_drops : Metrics.counter;
  i_spikes : Metrics.counter;
  i_fallbacks : Metrics.counter;
  i_unreachable : Metrics.counter;
  i_fault_us : Metrics.counter;
  i_request_bytes : Metrics.histogram;
  i_reply_bytes : Metrics.histogram;
}

let make_instruments reg =
  let open Metrics in
  {
    i_intercepted =
      counter reg ~help:"Calls intercepted by the RTE, local and remote."
        "coign_rte_intercepted_calls_total";
    i_instantiations =
      counter reg ~help:"Component instantiations intercepted."
        "coign_rte_instantiations_total";
    i_remote_calls =
      counter reg ~help:"Completed cross-machine calls and forwarded instantiations."
        "coign_rte_remote_calls_total";
    i_remote_bytes =
      counter reg ~help:"Marshaled bytes moved across machines." "coign_rte_remote_bytes_total";
    i_comm_us =
      counter reg ~help:"Virtual communication time accumulated, in microseconds."
        "coign_rte_comm_us_total";
    i_retries =
      counter reg ~help:"Remote-call attempts beyond the first." "coign_rte_retries_total";
    i_drops = counter reg ~help:"Messages eaten by the fault model." "coign_rte_drops_total";
    i_spikes = counter reg ~help:"Latency spikes suffered." "coign_rte_spikes_total";
    i_fallbacks =
      counter reg ~help:"Instantiations degraded to the creator machine."
        "coign_rte_degraded_instantiations_total";
    i_unreachable =
      counter reg ~help:"Calls abandoned as unreachable." "coign_rte_unreachable_calls_total";
    i_fault_us =
      counter reg ~help:"Communication time attributable to faults, in microseconds."
        "coign_rte_fault_us_total";
    i_request_bytes =
      histogram reg ~help:"Cross-wrapper request message sizes, in bytes."
        "coign_rte_request_bytes";
    i_reply_bytes =
      histogram reg ~help:"Cross-wrapper reply message sizes, in bytes." "coign_rte_reply_bytes";
  }

(* Breaker and ladder instruments, separate from the base set so a run
   without a ladder exposes exactly the metrics it always did. *)
type ladder_instruments = {
  li_opens : Metrics.counter;
  li_closes : Metrics.counter;
  li_failovers : Metrics.counter;
  li_failbacks : Metrics.counter;
  li_migrations : Metrics.counter;
  li_stranded : Metrics.counter;
  li_rescued : Metrics.counter;
  li_wait_us : Metrics.counter;
  li_rung : Metrics.gauge;
  li_ewma : Metrics.gauge;
}

let make_ladder_instruments reg =
  let open Metrics in
  {
    li_opens =
      counter reg ~help:"Circuit-breaker open transitions." "coign_resilience_breaker_opens_total";
    li_closes =
      counter reg ~help:"Circuit-breaker close transitions."
        "coign_resilience_breaker_closes_total";
    li_failovers =
      counter reg ~help:"Placement switches down the fallback ladder."
        "coign_resilience_failovers_total";
    li_failbacks =
      counter reg ~help:"Placement switches back up the fallback ladder."
        "coign_resilience_failbacks_total";
    li_migrations =
      counter reg ~help:"Instances migrated live between machines."
        "coign_resilience_migrated_instances_total";
    li_stranded =
      counter reg ~help:"Calls that had to wait out an open breaker."
        "coign_resilience_stranded_calls_total";
    li_rescued =
      counter reg ~help:"Failed remote calls completed locally after failover."
        "coign_resilience_rescued_calls_total";
    li_wait_us =
      counter reg ~help:"Virtual time stranded calls spent waiting on cooloffs, in microseconds."
        "coign_resilience_wait_us_total";
    li_rung = gauge reg ~help:"Fallback rung currently installed (0 = primary)." "coign_resilience_rung";
    li_ewma =
      gauge reg ~help:"EWMA link health (1 = all successes)." "coign_resilience_link_ewma";
  }

(* Fleet instruments, registered only when the widest rung has more
   than one host: a one-host ladder exposes exactly the breaker and
   ladder set. *)
type fleet_instruments = {
  fi_promotions : Metrics.counter;
  fi_splits : Metrics.counter;
  fi_resizes : Metrics.counter;
  fi_inter_host : Metrics.counter;
  fi_hosts : Metrics.gauge;
  fi_shards : Metrics.gauge;
}

let make_fleet_instruments reg =
  let open Metrics in
  {
    fi_promotions =
      counter reg ~help:"Shards redirected to a standing replica on breaker open."
        "coign_fleet_promotions_total";
    fi_splits =
      counter reg ~help:"Hot shards split by the decayed-load detector."
        "coign_fleet_shard_splits_total";
    fi_resizes =
      counter reg ~help:"Pool size changes along the pool-elastic ladder."
        "coign_fleet_resizes_total";
    fi_inter_host =
      counter reg ~help:"Completed server-to-server calls between pool hosts."
        "coign_fleet_inter_host_calls_total";
    fi_hosts = gauge reg ~help:"Pool hosts currently serving." "coign_fleet_pool_hosts";
    fi_shards = gauge reg ~help:"Shards currently mapped." "coign_fleet_shards";
  }

type fleet_config = {
  fc_ladder : Fallback.pool_ladder;
  fc_health : Health.policy;
  fc_max_probe_rounds : int;
  fc_split_share : float;
  fc_check_every : int;
  fc_half_life_us : float;
  fc_host_faults : (int * Fault.spec) list;
}

let fleet ?(health = Health.default_policy) ?(max_probe_rounds = 8) ?(split_share = 0.6)
    ?(check_every = 64) ?(half_life_us = 200_000.) ?(host_faults = []) ladder =
  if not (split_share > 0. && split_share <= 1.) then
    invalid_arg "Rte.fleet: split_share must be in (0, 1]";
  if check_every < 1 then invalid_arg "Rte.fleet: check_every must be >= 1";
  if max_probe_rounds < 1 then invalid_arg "Rte.fleet: max_probe_rounds must be >= 1";
  {
    fc_ladder = ladder;
    fc_health = health;
    fc_max_probe_rounds = max_probe_rounds;
    fc_split_share = split_share;
    fc_check_every = check_every;
    fc_half_life_us = half_life_us;
    fc_host_faults = host_faults;
  }

type resilience_config = fleet_config

let resilience ?health ?max_probe_rounds ladder =
  fleet ?health ?max_probe_rounds (Fallback.pool_of_one ladder)

(* Watch instruments, separate for the same reason as the ladder
   set: a run without a watch exposes exactly the metrics it always
   did. *)
type watch_instruments = {
  wi_similarity : Metrics.gauge;
  wi_window_pairs : Metrics.gauge;
  wi_window_mass : Metrics.gauge;
  wi_checks : Metrics.counter;
  wi_detections : Metrics.counter;
  wi_repartitions : Metrics.counter;
  wi_migrations : Metrics.counter;
  wi_unchanged : Metrics.counter;
  wi_rejected : Metrics.counter;
}

let make_watch_instruments reg =
  let open Metrics in
  {
    wi_similarity =
      gauge reg ~help:"Window-vs-baseline usage similarity at the last drift check."
        "coign_drift_similarity";
    wi_window_pairs =
      gauge reg ~help:"Distinct pairs carrying window mass at the last drift check."
        "coign_drift_window_pairs";
    wi_window_mass =
      gauge reg ~help:"Decayed observation mass in the window at the last drift check."
        "coign_drift_window_mass";
    wi_checks = counter reg ~help:"Drift checks performed." "coign_drift_checks_total";
    wi_detections =
      counter reg ~help:"Drift checks that crossed the threshold." "coign_drift_detections_total";
    wi_repartitions =
      counter reg ~help:"Placement switches installed by the watch loop."
        "coign_watch_repartitions_total";
    wi_migrations =
      counter reg ~help:"Instances migrated live by watch re-partitions."
        "coign_watch_migrated_instances_total";
    wi_unchanged =
      counter reg ~help:"Drift detections whose re-cut chose the installed placement."
        "coign_watch_unchanged_cuts_total";
    wi_rejected =
      counter reg ~help:"Candidate cuts rejected by constraint validation."
        "coign_watch_rejected_cuts_total";
  }

type watch_config = {
  wc_session : Analysis.Session.t;
  wc_net : Net_profiler.t;
  wc_threshold : float;
  wc_check_every : int;
  wc_min_dwell_us : float;
  wc_min_window : float;
  wc_half_life_us : float;
  wc_sample_every : int;
  wc_tap : Tap.sink option;
}

let watch ?(threshold = 0.90) ?(check_every = 256) ?(min_dwell_us = 50_000.)
    ?(min_window = 32.) ?(half_life_us = 200_000.) ?(sample_every = 16) ?tap ~net session =
  if not (threshold >= 0. && threshold <= 1.) then
    invalid_arg "Rte.watch: threshold must be in [0, 1]";
  if check_every < 1 then invalid_arg "Rte.watch: check_every must be >= 1";
  {
    wc_session = session;
    wc_net = net;
    wc_threshold = threshold;
    wc_check_every = check_every;
    wc_min_dwell_us = min_dwell_us;
    wc_min_window = min_window;
    wc_half_life_us = half_life_us;
    wc_sample_every = sample_every;
    wc_tap = tap;
  }

type watch_action =
  | W_steady
  | W_unchanged
  | W_repartitioned of { wa_migrated : int; wa_left : int; wa_servers : int }
  | W_rejected of int  (* constraint violations in the candidate cut *)

type watch_checkpoint = {
  wk_at_us : float;
  wk_similarity : float;
  wk_window_pairs : int;
  wk_action : watch_action;
}

(* Mutable watch state: window, adopted baseline, installed cut. *)
type watch = {
  w_config : watch_config;
  w_window : Window.t;
  (* Always present: besides feeding the optional sink, the tap's
     seeded sampler decides which observations get their message sizes
     measured — the window's byte dimension. *)
  w_tap : Tap.t;
  w_obs : watch_instruments option;
  w_safe : bool array;          (* per-classification migration safety *)
  w_prof_share : float array;   (* profile's per-pair message share *)
  w_prof_byte_share : float array;  (* profile's per-pair byte share *)
  w_scale : Icc_graph.scale;    (* scratch scale vectors, pair-id order *)
  mutable w_baseline : Drift.signature;        (* message counts *)
  mutable w_baseline_bytes : Drift.signature;  (* byte volumes *)
  mutable w_current : Analysis.distribution;
  mutable w_last_switch_us : float;
  mutable w_since_check : int;
  mutable w_checks : int;
  mutable w_detections : int;
  mutable w_repartitions : int;
  mutable w_migrations : int;
  mutable w_unchanged : int;
  mutable w_rejected : int;
  mutable w_last_similarity : float;
  mutable w_timeline : watch_checkpoint list;  (* reversed *)
}

(* Mutable ladder state: per-host breakers and fault models, the
   dynamic shard table (splits grow it), per-shard active hosts,
   counters. The two-host resilience ladder is the pool whose widest
   rung has one host. *)
type pool = {
  p_config : fleet_config;
  p_ladder : Fallback.pool_ladder;
  p_health : Health.t array; (* one breaker per pool host link *)
  p_faults : Fault.t option array; (* one fault model per host link *)
  p_lobs : ladder_instruments option;
  p_obs : fleet_instruments option; (* only when the widest rung has > 1 host *)
  p_safe : bool array; (* per-classification migration safety *)
  p_component : int array; (* classification -> component representative *)
  p_comp_safe : bool array; (* by representative: all members safe *)
  p_window : Window.t; (* per-shard decayed remote-call load *)
  mutable p_rung : int;
  mutable p_shard_of : int array; (* classification -> shard (splits update it) *)
  mutable p_active : int array; (* shard -> host currently serving it *)
  mutable p_replicated : bool array; (* shard -> may promote to a replica *)
  mutable p_since_check : int;
  mutable p_opens : int;
  mutable p_closes : int;
  mutable p_failovers : int;
  mutable p_failbacks : int;
  mutable p_migrations : int;
  mutable p_stranded : int; (* calls that waited on an open breaker *)
  mutable p_rescued : int; (* failed calls completed locally after failover *)
  mutable p_promotions : int;
  mutable p_splits : int;
  mutable p_resizes : int;
  mutable p_inter_host : int;
}

type distributed = {
  m_factory : Factory.t;
  m_network : Network.t;
  m_jitter : float;
  m_rng : Prng.t; (* jitter noise: stream of dc_seed itself *)
  m_faults : Fault.t option;
  m_retry : Fault.retry_policy;
  m_retry_rng : Prng.t; (* backoff jitter: its own stream *)
  m_watch : watch option;
  m_pool : pool option; (* [None]: the retry-only path *)
  (* The message sizes of the round trip in flight, read by the two
     leg-time functions built once at install: a remote call builds no
     closure. *)
  mutable m_request_bytes : int;
  mutable m_reply_bytes : int;
  m_request_us : unit -> float;
  m_reply_us : unit -> float;
}

type mode = M_profiling | M_distributed of distributed

(* Call sites: one id per (interface, method) the RTE has wrapped, in
   first-seen order. Shadow-stack frames carry the id; a [Frame.t] is
   built from it only when a classifier needs a descriptor. *)
type sites = {
  site_base : Dense_map.t; (* Itype.id -> the interface's first site *)
  mutable site_itype : Itype.t array; (* site -> interface *)
  mutable site_meth : int array; (* site -> method index *)
  mutable site_outputs_ifaces : bool array; (* site -> reply may carry interface pointers *)
  mutable nsites : int;
}

type t = {
  ctx : Runtime.ctx;
  rte_classifier : Classifier.t;
  memo : Classifier.memo; (* int-keyed classification of [stack] *)
  stack : Shadow_stack.t;
  sites : sites;
  frame : inst:int -> classification:int -> site:int -> Frame.t; (* materializes a frame *)
  logger : Logger.t;
  (* Loggers were attached: build the per-call and per-instantiation
     events for them. Profiling records into [rte_icc] and
     [rte_inst_comm] directly either way. *)
  listening : bool;
  rte_icc : Icc.t;
  rte_inst_comm : Inst_comm.t;
  create_iface : Icc.iface; (* "ICoCreateInstance", interned in [rte_icc] *)
  (* Instance ids and handles are dense ints, so these maps are arrays;
     -1 marks an absent entry. Every instance whose creation this RTE
     intercepted has a classification. *)
  inst_classification : Dense_map.t;
  raw_to_wrap : Dense_map.t;
  wrap_to_raw : Dense_map.t;
  mode : mode;
  mutable comm : float;
  mutable n_remote_calls : int;
  mutable n_remote_bytes : int;
  mutable n_intercepted : int;
  (* Fault counters (all zero in profiling mode and in fault-free
     distributed runs). *)
  mutable n_retries : int;
  mutable n_drops : int;
  mutable n_spikes : int;
  mutable n_fallbacks : int;
  mutable n_unreachable : int;
  mutable fault_us : float;
  (* Lightweight per-classification-pair message counter, kept even in
     distributed mode (paper SS6: count messages "with only slight
     additional overhead" so usage drift can be recognized): pair ids
     from [pair_index], counts by pair id. *)
  pair_index : Key_index.t;
  mutable pair_counts : int array;
  (* Observability, both [None] unless the install opted in; every use
     site is behind a match so an unobserved RTE runs the same
     instructions it always did. *)
  obs_tracer : Trace.t option;
  (* With a tracer: instance i's ("caller", i) span argument at 2i and
     its ("callee", i) at 2i + 1, built on first use and shared by all
     its call spans. *)
  mutable span_arg_cache : (string * Jsonu.t) array;
  obs : instruments option;
}

type distributed_config = {
  dc_factory_policy : Factory.policy;
  dc_network : Network.t;
  dc_jitter : float;
  dc_seed : int64;
  dc_faults : Fault.spec option;
  dc_retry : Fault.retry_policy;
  dc_watch : watch_config option;
  dc_fleet : fleet_config option;
}

(* One master seed, one stream per stochastic concern. The jitter
   generator keeps the master seed itself (stream "-1") so fault-free
   runs reproduce the pre-fault draw sequence bit for bit; backoff
   jitter and fault verdicts get derived streams, so enabling either
   never perturbs the other draws. *)
let jitter_seed seed = seed
let retry_seed seed = Prng.stream seed 1
let fault_seed seed = Prng.stream seed 2
let watch_seed seed = Prng.stream seed 3

(* Per-host fault-verdict streams for the fleet: streams 8, 9, ... so
   adding hosts never perturbs the jitter/retry/fault/watch draws. *)
let host_fault_seed seed h = Prng.stream seed (8 + h)

(* The main program and instances created before install have no
   classification: -1. *)
let classification_of t inst = Dense_map.get t.inst_classification inst

(* The first call site of [itype], numbering its methods on first
   sight. *)
let site_base sites itype =
  let id = Itype.id itype in
  let b = Dense_map.get sites.site_base id in
  if b >= 0 then b
  else begin
    let b = sites.nsites and m = Itype.method_count itype in
    if b + m > Array.length sites.site_meth then begin
      let cap = max (2 * Array.length sites.site_meth) (b + m) in
      let extend a filler =
        let bigger = Array.make cap filler in
        Array.blit a 0 bigger 0 b;
        bigger
      in
      sites.site_itype <- extend sites.site_itype itype;
      sites.site_meth <- extend sites.site_meth 0;
      sites.site_outputs_ifaces <- extend sites.site_outputs_ifaces false
    end;
    for i = 0 to m - 1 do
      sites.site_itype.(b + i) <- itype;
      sites.site_meth.(b + i) <- i;
      sites.site_outputs_ifaces.(b + i) <- (Itype.procs itype i).Midl.outputs_ifaces
    done;
    sites.nsites <- b + m;
    Dense_map.set sites.site_base id b;
    b
  end

(* The full frame behind a shadow-stack entry, for descriptors. *)
let site_frame ctx sites ~inst ~classification ~site =
  let itype = sites.site_itype.(site) in
  Frame.make ~inst ~cls:(Runtime.instance_class_name ctx inst) ~classification
    ~iface:(Itype.name itype)
    ~meth:(Itype.method_name itype sites.site_meth.(site))

(* The caller of a call (the creator of an instance): the top frame, or
   the main program on an empty stack. *)
let caller_inst t =
  let (s : Shadow_stack.t) = t.stack in
  if s.n = 0 then Runtime.main_instance else s.insts.(s.n - 1)

let caller_classification t =
  let (s : Shadow_stack.t) = t.stack in
  if s.n = 0 then -1 else s.classifications.(s.n - 1)

let count_pair t ~caller_cls ~callee_cls =
  let p = Key_index.intern t.pair_index caller_cls callee_cls 0 in
  if p = Array.length t.pair_counts then begin
    let bigger = Array.make (2 * p) 0 in
    Array.blit t.pair_counts 0 bigger 0 p;
    t.pair_counts <- bigger
  end;
  t.pair_counts.(p) <- t.pair_counts.(p) + 1

(* One profiled call into the RTE's own summaries, recorded directly:
   the classification-level histograms and the instance matrix. *)
let record_profiled t ~caller ~caller_cls ~callee ~callee_cls iface ~remotable ~request ~reply =
  Icc.record_interned t.rte_icc ~src:caller_cls ~dst:callee_cls iface ~remotable ~request ~reply;
  Inst_comm.record_call t.rte_inst_comm ~caller ~callee ~request ~reply

(* The virtual clock spans are timed on: accumulated communication time
   plus the compute the application has charged. Deterministic for a
   seeded run, so traces golden-test. *)
let sim_now t = t.comm +. Runtime.compute_us t.ctx

let machine_of_instance t inst =
  match t.mode with
  | M_profiling -> Constraints.Client
  | M_distributed { m_factory; _ } -> Factory.machine_of m_factory inst

let no_span_arg = ("", Jsonu.Null)

(* The span argument [(key, Int inst)] in cache slot [2 inst + side]. *)
let span_arg t ~key ~side inst =
  let i = (2 * inst) + side in
  if i >= Array.length t.span_arg_cache then begin
    let bigger = Array.make (max 64 (2 * (i + 1))) no_span_arg in
    Array.blit t.span_arg_cache 0 bigger 0 (Array.length t.span_arg_cache);
    t.span_arg_cache <- bigger
  end;
  let arg = t.span_arg_cache.(i) in
  if arg != no_span_arg then arg
  else begin
    let arg = (key, Jsonu.Int inst) in
    t.span_arg_cache.(i) <- arg;
    arg
  end

(* A call span's arguments: caller and callee instances. *)
let call_span_args t ~caller ~callee =
  [ span_arg t ~key:"caller" ~side:0 caller; span_arg t ~key:"callee" ~side:1 callee ]

(* Zero-duration marker span for a ladder or watch-loop decision. *)
let marker_span t ~cat ~name ~at_us args =
  match t.obs_tracer with
  | None -> ()
  | Some tr ->
      let id = Trace.open_span tr ~name ~cat ~at_us in
      Trace.close_span tr ~args id ~at_us

let ladder_span t = marker_span t ~cat:"resilience"
let watch_span t = marker_span t ~cat:"watch"

(* Atomically install [dist] as the factory policy and migrate every
   live instance the safety predicate allows to its new home; the rest
   stay where they are. Shared by failover rung switches and watch
   re-partitions. Returns (migrated, left behind, moves in instance
   order). *)
let migrate_instances t m_factory ~safe ~dist =
  Factory.set_policy m_factory (Factory.By_classification dist);
  let migrated = ref 0 and left = ref 0 and moved = ref [] in
  List.iter
    (fun (inst, machine) ->
      if inst <> Runtime.main_instance then begin
        let c = classification_of t inst in
        let target =
          if c >= 0 && c < dist.Analysis.node_count then Analysis.location_of dist c
          else machine
        in
        if target <> machine then
          if safe c then begin
            Factory.record_instance m_factory ~inst target;
            moved := (inst, c, machine, target) :: !moved;
            incr migrated
          end
          else incr left
      end)
    (Factory.instances m_factory);
  (!migrated, !left, List.rev !moved)

(* Per-instance migration events, after the aggregate event. *)
let log_migrations t ~at_int moved =
  List.iter
    (fun (inst, c, machine, target) ->
      t.logger.Logger.log
        (Event.Instance_migrated
           {
             at_us = at_int;
             inst;
             classification = c;
             from_loc = Constraints.location_name machine;
             to_loc = Constraints.location_name target;
           }))
    moved

(* --- the ladder: pool execution, one host or k -------------------- *)

let pool_shape p = (Fallback.pool_rung_at p.p_ladder p.p_rung).Fallback.pr_shape

(* Span args name the host only when the widest rung has more than
   one: a one-host pool is the two-host resilience ladder, whose spans
   carry no host dimension. *)
let host_args p host args =
  if Array.length p.p_health > 1 then ("host", Jsonu.Int host) :: args else args

(* Shard serving a classification: the dynamic table where it speaks,
   shard 0 for anything outside it (main, run-time classifications,
   instances stranded server-side by an unsafe migration). *)
let pool_shard p c =
  let s =
    if c >= 0 && c < Array.length p.p_shard_of && p.p_shard_of.(c) >= 0 then p.p_shard_of.(c)
    else 0
  in
  if s < Array.length p.p_active then s else 0

let pool_host p c = p.p_active.(pool_shard p c)

(* The pool host link a remote call rides, -1 for none: the
   server-side endpoint's active host; for server-to-server traffic,
   the callee's. With one host this is 0 exactly when [src <> dst]. *)
let pool_link p ~src ~dst ~caller_cls ~callee_cls =
  match (src, dst) with
  | Constraints.Client, Constraints.Client -> -1
  | _, Constraints.Server ->
      let h = pool_host p callee_cls in
      if src = Constraints.Server && pool_host p caller_cls = h then -1 else h
  | Constraints.Server, Constraints.Client -> pool_host p caller_cls

(* Re-home every shard for the current shape: its primary host, unless
   that breaker is open and a standing replica is healthy — then the
   first healthy replica in ring order. Deterministic: shards ascend,
   replica rings are fixed by the shape. *)
let pool_reset_actives p ~now =
  let shape = pool_shape p in
  let k = shape.Pool.sh_hosts in
  Array.iteri
    (fun s _ ->
      let primary = s mod k in
      let serving =
        if Health.allows p.p_health.(primary) ~now_us:now then primary
        else if not p.p_replicated.(s) then primary
        else
          let rec pick i =
            if i >= shape.Pool.sh_replicas then primary
            else
              let h = (primary + i) mod k in
              if Health.allows p.p_health.(h) ~now_us:now then h else pick (i + 1)
          in
          pick 1
      in
      p.p_active.(s) <- serving)
    p.p_active

(* Move the pool along the ladder: install the rung's distribution,
   migrate the statically-safe instances (the rest stay where they are;
   their calls may strand on the breaker), re-home every shard onto the
   new host count. Events: the aggregate Failover/Failback first, then
   Pool_resized when the host count changed, then the per-instance
   migrations. *)
let pool_move t m_factory p ~to_rung ~at_us =
  let from_rung = p.p_rung in
  let pr = Fallback.pool_rung_at p.p_ladder to_rung in
  let dist = pr.Fallback.pr_distribution in
  let from_hosts = (pool_shape p).Pool.sh_hosts in
  let to_hosts = pr.Fallback.pr_shape.Pool.sh_hosts in
  let safe c = c >= 0 && c < Array.length p.p_safe && p.p_safe.(c) in
  let migrated, left, moved = migrate_instances t m_factory ~safe ~dist in
  p.p_rung <- to_rung;
  p.p_migrations <- p.p_migrations + migrated;
  (match p.p_lobs with
  | None -> ()
  | Some li ->
      Metrics.inc_int li.li_migrations migrated;
      Metrics.set li.li_rung (float_of_int to_rung));
  let at_int = int_of_float at_us in
  if to_rung > from_rung then begin
    p.p_failovers <- p.p_failovers + 1;
    (match p.p_lobs with None -> () | Some li -> Metrics.inc li.li_failovers);
    t.logger.Logger.log
      (Event.Failover
         {
           at_us = at_int;
           rung = pr.Fallback.pr_name;
           from_rung;
           to_rung;
           migrated;
           stranded = left;
         });
    ladder_span t ~name:"failover" ~at_us
      [
        ("from_rung", Jsonu.Int from_rung);
        ("to_rung", Jsonu.Int to_rung);
        ("migrated", Jsonu.Int migrated);
        ("stranded", Jsonu.Int left);
      ]
  end
  else begin
    p.p_failbacks <- p.p_failbacks + 1;
    (match p.p_lobs with None -> () | Some li -> Metrics.inc li.li_failbacks);
    t.logger.Logger.log
      (Event.Failback
         { at_us = at_int; rung = pr.Fallback.pr_name; from_rung; to_rung; migrated });
    ladder_span t ~name:"failback" ~at_us
      [
        ("from_rung", Jsonu.Int from_rung);
        ("to_rung", Jsonu.Int to_rung);
        ("migrated", Jsonu.Int migrated);
      ]
  end;
  if from_hosts <> to_hosts then begin
    p.p_resizes <- p.p_resizes + 1;
    (match p.p_obs with
    | None -> ()
    | Some fi ->
        Metrics.inc fi.fi_resizes;
        Metrics.set fi.fi_hosts (float_of_int to_hosts));
    t.logger.Logger.log
      (Event.Pool_resized
         {
           at_us = at_int;
           from_hosts;
           to_hosts;
           shards = Array.length p.p_active;
           migrated;
         });
    ladder_span t ~name:"pool.resize" ~at_us
      [ ("from_hosts", Jsonu.Int from_hosts); ("to_hosts", Jsonu.Int to_hosts) ]
  end;
  pool_reset_actives p ~now:at_us;
  log_migrations t ~at_int moved

(* React to a per-host breaker transition. An open promotes every shard
   the host was serving to a healthy replica; a shard with none (or one
   that may not replicate), or a pool of one, moves the whole pool down
   a rung. A close climbs back to the top rung and re-homes the
   shards. *)
let pool_on_transition t m_factory p ~host (tr : Health.transition) =
  let at_us = tr.Health.tr_at_us in
  let at_int = int_of_float at_us in
  let hb = p.p_health.(host) in
  (match p.p_lobs with None -> () | Some li -> Metrics.set li.li_ewma (Health.ewma hb));
  match tr.Health.tr_to with
  | Health.Half_open ->
      ladder_span t ~name:"breaker.half_open" ~at_us
        (host_args p host [ ("cooloff_us", Jsonu.Float (Health.cooloff_us hb)) ])
  | Health.Open ->
      p.p_opens <- p.p_opens + 1;
      (match p.p_lobs with None -> () | Some li -> Metrics.inc li.li_opens);
      t.logger.Logger.log
        (Event.Breaker_opened
           {
             at_us = at_int;
             failures = Health.consecutive_failures hb;
             drops = t.n_drops;
             spikes = t.n_spikes;
           });
      ladder_span t ~name:"breaker.open" ~at_us
        (host_args p host [ ("failures", Jsonu.Int (Health.consecutive_failures hb)) ]);
      let shape = pool_shape p in
      let k = shape.Pool.sh_hosts in
      let stuck = ref false in
      if k > 1 then
        Array.iteri
          (fun s serving ->
            if serving = host then
              if not p.p_replicated.(s) then stuck := true
              else begin
                let primary = s mod k in
                let rec pick i =
                  if i >= shape.Pool.sh_replicas then None
                  else
                    let h = (primary + i) mod k in
                    if h <> host && Health.allows p.p_health.(h) ~now_us:at_us then Some h
                    else pick (i + 1)
                in
                match pick 0 with
                | Some h ->
                    p.p_active.(s) <- h;
                    p.p_promotions <- p.p_promotions + 1;
                    (match p.p_obs with
                    | None -> ()
                    | Some fi -> Metrics.inc fi.fi_promotions);
                    t.logger.Logger.log
                      (Event.Replica_promoted
                         { at_us = at_int; shard = s; from_host = host; to_host = h });
                    ladder_span t ~name:"replica.promote" ~at_us
                      [
                        ("shard", Jsonu.Int s);
                        ("from_host", Jsonu.Int host);
                        ("to_host", Jsonu.Int h);
                      ]
                | None -> stuck := true
              end)
          p.p_active
      else stuck := true;
      if !stuck then begin
        let bottom = Fallback.pool_rung_count p.p_ladder - 1 in
        let next = min (p.p_rung + 1) bottom in
        if next <> p.p_rung then pool_move t m_factory p ~to_rung:next ~at_us
      end
  | Health.Closed ->
      p.p_closes <- p.p_closes + 1;
      (match p.p_lobs with None -> () | Some li -> Metrics.inc li.li_closes);
      t.logger.Logger.log
        (Event.Breaker_closed
           { at_us = at_int; probes = (Health.policy hb).Health.hp_probe_successes });
      ladder_span t ~name:"breaker.close" ~at_us (host_args p host []);
      if p.p_rung <> 0 then pool_move t m_factory p ~to_rung:0 ~at_us
      else pool_reset_actives p ~now:at_us

(* Ask host [host]'s breaker whether it admits traffic at [now],
   reacting to the transition a due cooloff makes. *)
let pool_admits t m_factory p ~host ~now =
  let hb = p.p_health.(host) in
  (match Health.observe hb ~now_us:now with
  | Some tr -> pool_on_transition t m_factory p ~host tr
  | None -> ());
  Health.allows hb ~now_us:now

(* Feed one round trip's outcome to host [host]'s breaker. *)
let pool_record t m_factory p ~host ~ok =
  let hb = p.p_health.(host) in
  let now = sim_now t in
  let transition =
    if ok then Health.record_success hb ~now_us:now else Health.record_failure hb ~now_us:now
  in
  (match transition with
  | Some tr -> pool_on_transition t m_factory p ~host tr
  | None -> ());
  match p.p_lobs with None -> () | Some li -> Metrics.set li.li_ewma (Health.ewma hb)

(* Deterministic hot-shard check: when one shard carries more than
   [fc_split_share] of the window's decayed remote-call mass and holds
   at least two components, carve off the upper half of its movable
   (migration-safe) components into a fresh shard on the least-loaded
   host. Pure arithmetic over the window snapshot — no randomness.
   Only ever called with more than one host. *)
let pool_maybe_split t p ~now =
  let k = (pool_shape p).Pool.sh_hosts in
  let shard_count = Array.length p.p_active in
  let counts = Window.counts_at p.p_window ~now_us:now in
  let extras = Window.extras_at p.p_window ~now_us:now in
  let load = Array.make shard_count 0. in
  Array.iteri (fun s c -> if s < shard_count then load.(s) <- c) counts;
  List.iter
    (fun ((a, b), c) -> if a = b && a >= 0 && a < shard_count then load.(a) <- load.(a) +. c)
    extras;
  let total = Array.fold_left ( +. ) 0. load in
  if total > 0. then begin
    let top = ref 0 in
    Array.iteri (fun s l -> if l > load.(!top) then top := s) load;
    if load.(!top) /. total > p.p_config.fc_split_share then begin
      let s_top = !top in
      (* Components currently in the hot shard, ascending representative. *)
      let reps = Hashtbl.create 8 in
      Array.iteri
        (fun c sh -> if sh = s_top then Hashtbl.replace reps p.p_component.(c) ())
        p.p_shard_of;
      let all = List.sort compare (Hashtbl.fold (fun r () acc -> r :: acc) reps []) in
      let movable = List.filter (fun r -> p.p_comp_safe.(r)) all in
      let half = List.length movable / 2 in
      let keep_at_least_one = List.length all - half >= 1 in
      if List.length all >= 2 && half >= 1 && keep_at_least_one then begin
        let moving =
          List.filteri (fun i _ -> i >= List.length movable - half) movable
        in
        let new_shard = shard_count in
        (* Least-loaded host by shard count, ties to the lowest id. *)
        let per_host = Array.make k 0 in
        Array.iter (fun h -> if h < k then per_host.(h) <- per_host.(h) + 1) p.p_active;
        let to_host = ref 0 in
        Array.iteri (fun h n -> if n < per_host.(!to_host) then to_host := h) per_host;
        let to_host = !to_host in
        let moved = ref 0 in
        Array.iteri
          (fun c sh ->
            if sh = s_top && List.mem p.p_component.(c) moving then begin
              p.p_shard_of.(c) <- new_shard;
              incr moved
            end)
          p.p_shard_of;
        p.p_active <- Array.append p.p_active [| to_host |];
        p.p_replicated <- Array.append p.p_replicated [| true |];
        p.p_active.(new_shard) <- to_host;
        p.p_splits <- p.p_splits + 1;
        (match p.p_obs with
        | None -> ()
        | Some fi ->
            Metrics.inc fi.fi_splits;
            Metrics.set fi.fi_shards (float_of_int (Array.length p.p_active)));
        t.logger.Logger.log
          (Event.Shard_split
             {
               at_us = int_of_float now;
               shard = s_top;
               new_shard;
               moved = !moved;
               to_host;
             });
        ladder_span t ~name:"shard.split" ~at_us:now
          [
            ("shard", Jsonu.Int s_top);
            ("new_shard", Jsonu.Int new_shard);
            ("moved", Jsonu.Int !moved);
            ("to_host", Jsonu.Int to_host);
          ]
      end
    end
  end

(* Feed one served remote call into the per-shard load window; check
   for a hot shard every [fc_check_every] observations. Skipped
   entirely at pool size 1, so a one-host ladder never pays for it. *)
let pool_observe t p ~callee_cls ~bytes =
  if (pool_shape p).Pool.sh_hosts > 1 then begin
    let now = sim_now t in
    let s = pool_shard p callee_cls in
    Window.observe p.p_window ~at_us:now ~caller:s ~callee:s ~bytes;
    p.p_since_check <- p.p_since_check + 1;
    if p.p_since_check >= p.p_config.fc_check_every then begin
      p.p_since_check <- 0;
      pool_maybe_split t p ~now
    end
  end

(* The window said usage drifted: re-price the profiled graph with the
   window's per-pair volumes, validate the candidate cut, and — when it
   differs from the installed one — atomically switch the factory and
   migrate the statically-safe instances. Either way the window
   snapshot becomes the new comparison baseline, so similarity snaps
   back to 1 and the loop cannot flap on the same shift. *)
let watch_repartition t m_factory w ~now ~similarity =
  let cfg = w.w_config in
  let adopt_baseline () =
    w.w_baseline <- Window.signature_at w.w_window ~now_us:now;
    w.w_baseline_bytes <- Window.byte_signature_at w.w_window ~now_us:now;
    w.w_last_switch_us <- now
  in
  let counts = Window.counts_at w.w_window ~now_us:now in
  let win_total = Window.total_at w.w_window ~now_us:now in
  let bytes = Window.bytes_at w.w_window ~now_us:now in
  let byte_total = Window.byte_total_at w.w_window ~now_us:now in
  for p = 0 to Array.length w.w_scale.Icc_graph.sc_messages - 1 do
    let ms = counts.(p) /. win_total /. w.w_prof_share.(p) in
    w.w_scale.Icc_graph.sc_messages.(p) <- ms;
    (* Pairs the profile priced by count alone (no measured bytes), or
       a window that has not yet seen a remote payload, fall back to
       the message multiplier: the byte dimension carries no signal. *)
    w.w_scale.Icc_graph.sc_bytes.(p) <-
      (if byte_total = 0. || w.w_prof_byte_share.(p) = 0. then ms
       else bytes.(p) /. byte_total /. w.w_prof_byte_share.(p))
  done;
  let candidate = Analysis.Session.solve cfg.wc_session ~scale:w.w_scale ~net:cfg.wc_net in
  let violations =
    Analysis.validate
      ~classifier:(Analysis.Session.classifier cfg.wc_session)
      ~constraints:(Analysis.Session.constraints cfg.wc_session)
      candidate
  in
  if violations <> [] then begin
    (* Cannot happen for a cut the session itself computed (the
       constraint edges are infinite), but the lint gate is cheap and
       keeps a bad candidate from ever reaching the factory. *)
    w.w_rejected <- w.w_rejected + 1;
    (match w.w_obs with None -> () | Some wi -> Metrics.inc wi.wi_rejected);
    w.w_last_switch_us <- now;
    W_rejected (List.length violations)
  end
  else if candidate.Analysis.placement = w.w_current.Analysis.placement then begin
    w.w_unchanged <- w.w_unchanged + 1;
    (match w.w_obs with None -> () | Some wi -> Metrics.inc wi.wi_unchanged);
    adopt_baseline ();
    W_unchanged
  end
  else begin
    let from_servers = w.w_current.Analysis.server_count in
    let migrated, left, moved =
      migrate_instances t m_factory
        ~safe:(fun c -> c >= 0 && c < Array.length w.w_safe && w.w_safe.(c))
        ~dist:candidate
    in
    w.w_repartitions <- w.w_repartitions + 1;
    w.w_migrations <- w.w_migrations + migrated;
    (match w.w_obs with
    | None -> ()
    | Some wi ->
        Metrics.inc wi.wi_repartitions;
        Metrics.inc_int wi.wi_migrations migrated);
    let at_int = int_of_float now in
    t.logger.Logger.log
      (Event.Repartitioned
         {
           at_us = at_int;
           similarity;
           from_servers;
           to_servers = candidate.Analysis.server_count;
           migrated;
           left;
         });
    watch_span t ~name:"repartition" ~at_us:now
      [
        ("similarity", Jsonu.Float similarity);
        ("migrated", Jsonu.Int migrated);
        ("left", Jsonu.Int left);
        ("servers", Jsonu.Int candidate.Analysis.server_count);
      ];
    log_migrations t ~at_int moved;
    w.w_current <- candidate;
    adopt_baseline ();
    W_repartitioned
      { wa_migrated = migrated; wa_left = left; wa_servers = candidate.Analysis.server_count }
  end

(* One drift check on the virtual clock: compare the decayed window
   signature against the adopted baseline; below the threshold — with
   enough evidence in the window and outside the dwell period — re-cut. *)
let watch_check t m_factory w ~now =
  let cfg = w.w_config in
  w.w_checks <- w.w_checks + 1;
  let signature = Window.signature_at w.w_window ~now_us:now in
  (* Drift in either dimension is drift: a usage shift that keeps the
     call mix but fattens payloads only moves the byte signature. The
     byte dimension is built from the tap's subsample, so it only
     speaks once enough sampled sizes back it. *)
  let count_sim = Drift.similarity w.w_baseline signature in
  let similarity =
    if float_of_int (Window.byte_observed w.w_window) < cfg.wc_min_window then count_sim
    else
      Float.min count_sim
        (Drift.similarity w.w_baseline_bytes
           (Window.byte_signature_at w.w_window ~now_us:now))
  in
  let window_pairs = Drift.pair_count signature in
  let mass = Window.total_at w.w_window ~now_us:now in
  w.w_last_similarity <- similarity;
  (match w.w_obs with
  | None -> ()
  | Some wi ->
      Metrics.inc wi.wi_checks;
      Metrics.set wi.wi_similarity similarity;
      Metrics.set wi.wi_window_pairs (float_of_int window_pairs);
      Metrics.set wi.wi_window_mass mass);
  let drifted =
    similarity < cfg.wc_threshold
    && mass >= cfg.wc_min_window
    && now -. w.w_last_switch_us >= cfg.wc_min_dwell_us
  in
  let action =
    if not drifted then W_steady
    else begin
      w.w_detections <- w.w_detections + 1;
      (match w.w_obs with None -> () | Some wi -> Metrics.inc wi.wi_detections);
      t.logger.Logger.log
        (Event.Drift_detected
           { at_us = int_of_float now; similarity; threshold = cfg.wc_threshold; window_pairs });
      watch_span t ~name:"drift" ~at_us:now
        [
          ("similarity", Jsonu.Float similarity);
          ("threshold", Jsonu.Float cfg.wc_threshold);
          ("window_pairs", Jsonu.Int window_pairs);
        ];
      watch_repartition t m_factory w ~now ~similarity
    end
  in
  w.w_timeline <-
    { wk_at_us = now; wk_similarity = similarity; wk_window_pairs = window_pairs;
      wk_action = action }
    :: w.w_timeline

(* Feed one observation into the window and run a drift check every
   [wc_check_every] observations. Counts are exact — every observation
   lands in the window — but callers measure message sizes only for the
   tap's seeded 1-in-k subsample (the [Tap.accept] before each call
   here), local and remote calls alike, so the window's per-pair byte
   shares estimate the full traffic without per-call measurement cost.
   Called before the observed call is routed, so a re-cut applies to
   the very call that triggered it — the staleness bound. *)
let watch_observe t m_factory w ~now ~caller_cls ~callee_cls ~bytes =
  Window.observe w.w_window ~at_us:now ~caller:caller_cls ~callee:callee_cls ~bytes;
  w.w_since_check <- w.w_since_check + 1;
  if w.w_since_check >= w.w_config.wc_check_every then begin
    w.w_since_check <- 0;
    watch_check t m_factory w ~now
  end

(* One jittered one-way message time. *)
let leg_us d bytes =
  let base = Network.message_us d.m_network ~bytes in
  if d.m_jitter = 0. then base
  else Float.max 0. (Prng.gaussian d.m_rng ~mu:base ~sigma:(d.m_jitter *. base))

(* One simulated round trip over [model] with its full fault
   accounting, shared by forwarded calls and forwarded creates. It is
   the same whether or not a ladder watches the outcome, so fault-free
   runs are bit-identical either way. Virtual send time is {!sim_now},
   the clock fault windows are expressed against. *)
let round_trip t d ~model ~iface ~meth ~request_bytes ~reply_bytes =
  d.m_request_bytes <- request_bytes;
  d.m_reply_bytes <- reply_bytes;
  let oc =
    Fault.call ?model ~retry:d.m_retry ~rng:d.m_retry_rng ~now_us:(sim_now t) ~request_bytes
      ~reply_bytes ~request_us:d.m_request_us ~reply_us:d.m_reply_us ()
  in
  t.comm <- t.comm +. oc.Fault.oc_time_us;
  t.n_retries <- t.n_retries + oc.Fault.oc_retries;
  t.n_drops <- t.n_drops + oc.Fault.oc_drops;
  t.n_spikes <- t.n_spikes + oc.Fault.oc_spikes;
  t.fault_us <- t.fault_us +. oc.Fault.oc_fault_us;
  (match t.obs with
  | None -> ()
  | Some i ->
      Metrics.inc ~by:oc.Fault.oc_time_us i.i_comm_us;
      Metrics.inc_int i.i_retries oc.Fault.oc_retries;
      Metrics.inc_int i.i_drops oc.Fault.oc_drops;
      Metrics.inc_int i.i_spikes oc.Fault.oc_spikes;
      Metrics.inc ~by:oc.Fault.oc_fault_us i.i_fault_us);
  if oc.Fault.oc_retries > 0 && oc.Fault.oc_ok then
    t.logger.Logger.log (Event.Call_retried { iface; meth; retries = oc.Fault.oc_retries });
  oc

(* --- crossing calls ------------------------------------------------ *)

(* One round trip of an intercepted call over [model]. *)
let call_attempt t d model itype meth (sizes : Informer.sizes) =
  let oc =
    round_trip t d ~model ~iface:(Itype.name itype) ~meth:(Itype.method_name itype meth)
      ~request_bytes:sizes.Informer.request_bytes ~reply_bytes:sizes.Informer.reply_bytes
  in
  (match t.obs with
  | None -> ()
  | Some i ->
      Metrics.observe i.i_request_bytes sizes.Informer.request_bytes;
      Metrics.observe i.i_reply_bytes sizes.Informer.reply_bytes);
  oc

let call_unreachable t d itype meth dst =
  t.n_unreachable <- t.n_unreachable + 1;
  (match t.obs with None -> () | Some i -> Metrics.inc i.i_unreachable);
  Hresult.fail
    (Hresult.E_unreachable
       (Itype.qualified_name itype meth ^ ": no reply from " ^ Constraints.location_name dst
      ^ " after "
       ^ string_of_int (max 1 d.m_retry.Fault.rp_max_attempts)
       ^ " attempts"))

let count_remote t ~bytes =
  t.n_remote_calls <- t.n_remote_calls + 1;
  t.n_remote_bytes <- t.n_remote_bytes + bytes;
  match t.obs with
  | None -> ()
  | Some i ->
      Metrics.inc i.i_remote_calls;
      Metrics.inc_int i.i_remote_bytes bytes

(* Route a crossing call over its pool-host link, through that host's
   breaker and fault model. Failures feed the breaker; a transition may
   promote replicas or move the pool along the ladder, after which the
   link is re-read — the call may then complete locally (rescued: the
   underlying [Runtime.call] already ran; the fault model only decides
   whether the communication made it), on a promoted replica, or on the
   shrunken pool. Calls facing an open breaker are stranded: they wait
   out the cooloff and become the half-open probe. [rounds] counts
   failed round trips so far; [stranded] says the call already waited. *)
let rec pool_call t d p itype meth (sizes : Informer.sizes) ~caller ~callee ~caller_cls
    ~callee_cls ~rounds ~stranded =
  let m_factory = d.m_factory in
  let src = Factory.machine_of m_factory caller in
  let dst = Factory.machine_of m_factory callee in
  let h = pool_link p ~src ~dst ~caller_cls ~callee_cls in
  if h < 0 then begin
    if rounds > 0 then begin
      p.p_rescued <- p.p_rescued + 1;
      match p.p_lobs with None -> () | Some li -> Metrics.inc li.li_rescued
    end
  end
  else
    let now = sim_now t in
    if not (pool_admits t m_factory p ~host:h ~now) then begin
      if not stranded then begin
        p.p_stranded <- p.p_stranded + 1;
        match p.p_lobs with None -> () | Some li -> Metrics.inc li.li_stranded
      end;
      let wait = Health.cooloff_expires_at p.p_health.(h) -. now in
      t.comm <- t.comm +. wait;
      t.fault_us <- t.fault_us +. wait;
      (match t.obs with
      | None -> ()
      | Some i ->
          Metrics.inc ~by:wait i.i_comm_us;
          Metrics.inc ~by:wait i.i_fault_us);
      (match p.p_lobs with None -> () | Some li -> Metrics.inc ~by:wait li.li_wait_us);
      pool_call t d p itype meth sizes ~caller ~callee ~caller_cls ~callee_cls ~rounds
        ~stranded:true
    end
    else if rounds >= p.p_config.fc_max_probe_rounds then call_unreachable t d itype meth dst
    else begin
      let oc = call_attempt t d p.p_faults.(h) itype meth sizes in
      if oc.Fault.oc_ok then begin
        pool_record t m_factory p ~host:h ~ok:true;
        let bytes = sizes.Informer.request_bytes + sizes.Informer.reply_bytes in
        count_remote t ~bytes;
        if src = Constraints.Server && dst = Constraints.Server then begin
          p.p_inter_host <- p.p_inter_host + 1;
          match p.p_obs with None -> () | Some fi -> Metrics.inc fi.fi_inter_host
        end;
        if dst = Constraints.Server then pool_observe t p ~callee_cls ~bytes
      end
      else begin
        pool_record t m_factory p ~host:h ~ok:false;
        pool_call t d p itype meth sizes ~caller ~callee ~caller_cls ~callee_cls
          ~rounds:(rounds + 1) ~stranded
      end
    end

(* A call whose endpoints sit on different machines (or pool hosts):
   size it, refuse it on a non-remotable interface, and pay its round
   trip. *)
let cross t d itype meth ~args ~outs ~ret ~caller ~callee ~caller_cls ~callee_cls ~dst =
  let sizes = Informer.measure_call itype ~meth ~ins:args ~outs ~ret in
  if not sizes.Informer.remotable then
    Hresult.fail
      (Hresult.E_cannot_marshal
         ("cross-machine call on non-remotable " ^ Itype.qualified_name itype meth));
  match d.m_pool with
  | None ->
      if not (call_attempt t d d.m_faults itype meth sizes).Fault.oc_ok then
        call_unreachable t d itype meth dst;
      count_remote t ~bytes:(sizes.Informer.request_bytes + sizes.Informer.reply_bytes)
  | Some p ->
      pool_call t d p itype meth sizes ~caller ~callee ~caller_cls ~callee_cls ~rounds:0
        ~stranded:false

(* The distributed half of an intercepted call, after it ran: the
   watch's observation, then the routing. Same-host calls stop at the
   placement lookup. *)
let route_call t d itype meth ~args ~outs ~ret ~caller ~callee ~caller_cls ~callee_cls =
  let m_factory = d.m_factory in
  (match d.m_watch with
  | None -> ()
  | Some w ->
      let now = sim_now t in
      let bytes =
        if Tap.accept w.w_tap then begin
          let sizes = Informer.measure_call itype ~meth ~ins:args ~outs ~ret in
          let b = sizes.Informer.request_bytes + sizes.Informer.reply_bytes in
          Tap.emit w.w_tap ~at_us:now ~kind:Tap.Call ~caller:caller_cls ~callee:callee_cls ~bytes:b;
          b
        end
        else 0
      in
      watch_observe t m_factory w ~now ~caller_cls ~callee_cls ~bytes);
  let src = Factory.machine_of m_factory caller in
  let dst = Factory.machine_of m_factory callee in
  (* A call crosses the wire when the endpoints live on different
     machines — or, under a pool, on different pool hosts. With no
     ladder the condition is exactly [src <> dst]. *)
  let crosses =
    match d.m_pool with
    | None -> src <> dst
    | Some p -> pool_link p ~src ~dst ~caller_cls ~callee_cls >= 0
  in
  if crosses then cross t d itype meth ~args ~outs ~ret ~caller ~callee ~caller_cls ~callee_cls ~dst

(* --- interception -------------------------------------------------- *)

(* Mint (or reuse) the Coign-instrumented wrapper for a raw handle. The
   wrapper captures what every call through it needs — the raw
   implementation, the interface, the owning instance and its
   classification (fixed at its creation), the interface's first call
   site — so a call reads no handle entry. Profiling interns the
   interface name in the RTE's ICC table here, once, so a profiled call
   hashes no string. *)
let rec wrap t raw_h =
  if Runtime.handle_is_wrapper t.ctx raw_h then raw_h
  else
    let w = Dense_map.get t.raw_to_wrap raw_h in
    if w >= 0 then w
    else begin
      let itype = Runtime.handle_itype t.ctx raw_h in
      let owner = Runtime.handle_owner t.ctx raw_h in
      let owner_cls = classification_of t owner in
      let dispatch = Runtime.handle_dispatch t.ctx raw_h in
      let site = site_base t.sites itype in
      let iface =
        match t.mode with
        | M_profiling -> Icc.intern t.rte_icc (Itype.name itype)
        | M_distributed _ -> t.create_iface (* never recorded *)
      in
      let intercept =
        match t.obs_tracer with
        | None ->
            fun ctx ~meth args ->
              intercept_run t ctx dispatch itype owner owner_cls iface site ~meth args
        | Some tr ->
            fun ctx ~meth args ->
              intercept_traced t tr ctx dispatch itype owner owner_cls iface site ~meth args
      in
      let w = Runtime.alloc_foreign_handle t.ctx ~owner ~itype ~wrapper:true intercept in
      Dense_map.set t.raw_to_wrap raw_h w;
      Dense_map.set t.wrap_to_raw w raw_h;
      if t.listening then
        t.logger.Logger.log
          (Event.Interface_instantiated { owner; iface = Itype.name itype; handle = w });
      w
    end

and intercept_traced t tr ctx dispatch itype callee callee_cls iface site ~meth args =
  let id =
    Trace.open_span tr ~name:(Itype.qualified_name itype meth) ~cat:"call" ~at_us:(sim_now t)
  in
  let span_args = call_span_args t ~caller:(caller_inst t) ~callee in
  match intercept_run t ctx dispatch itype callee callee_cls iface site ~meth args with
  | result ->
      Trace.close_span tr ~args:span_args id ~at_us:(sim_now t);
      result
  | exception e ->
      Trace.close_span tr
        ~args:(span_args @ [ ("error", Jsonu.Str (Printexc.to_string e)) ])
        id ~at_us:(sim_now t);
      raise e

and intercept_run t ctx dispatch itype callee callee_classification iface site ~meth args =
  (* The caller's frame carries the classification its instance got at
     instantiation, and the wrapper the callee's: no lookup. The
     wrapper's own [Runtime.call] checked the instance and the method,
     so the raw implementation runs directly. *)
  let caller = caller_inst t in
  let caller_classification = caller_classification t in
  let site = site + meth in
  Shadow_stack.push t.stack ~inst:callee ~classification:callee_classification ~site;
  let ((outs, ret) as result) =
    match dispatch ctx ~meth args with
    | result ->
        Shadow_stack.pop t.stack;
        result
    | exception e ->
        Shadow_stack.pop t.stack;
        raise e
  in
  t.n_intercepted <- t.n_intercepted + 1;
  (match t.obs with None -> () | Some i -> Metrics.inc i.i_intercepted);
  count_pair t ~caller_cls:caller_classification ~callee_cls:callee_classification;
  (match t.mode with
  | M_profiling ->
      let sizes = Informer.measure_call itype ~meth ~ins:args ~outs ~ret in
      (match t.obs with
      | None -> ()
      | Some i ->
          Metrics.observe i.i_request_bytes sizes.Informer.request_bytes;
          Metrics.observe i.i_reply_bytes sizes.Informer.reply_bytes);
      record_profiled t ~caller ~caller_cls:caller_classification ~callee
        ~callee_cls:callee_classification iface ~remotable:sizes.Informer.remotable
        ~request:sizes.Informer.request_bytes ~reply:sizes.Informer.reply_bytes;
      if t.listening then
        t.logger.Logger.log
          (Event.Interface_call
             {
               caller;
               caller_classification;
               callee;
               callee_classification;
               iface = Itype.name itype;
               meth = Itype.method_name itype meth;
               remotable = sizes.Informer.remotable;
               request_bytes = sizes.Informer.request_bytes;
               reply_bytes = sizes.Informer.reply_bytes;
             })
  | M_distributed d ->
      route_call t d itype meth ~args ~outs ~ret ~caller ~callee
        ~caller_cls:caller_classification ~callee_cls:callee_classification);
  (* Keep every escaping interface pointer wrapped — but only walk the
     reply when the method can actually output interface pointers (the
     distribution informer's "examine parameters only enough to
     identify interface pointers"; most methods skip the walk
     entirely). *)
  if t.sites.site_outputs_ifaces.(site) then begin
    (* The reply first, then the out-parameters: wrapper handles are
       numbered in the order they are minted. *)
    let wrap_h = wrap t in
    let ret' = Value.map_iface_handles wrap_h ret in
    let outs' = Value.map_iface_handles_list wrap_h outs in
    if outs' == outs && ret' == ret then result else (outs', ret')
  end
  else result

(* --- instantiation ------------------------------------------------- *)

(* An instantiation request costs one round trip when forwarded: the
   request plus the marshaled object reference coming back. *)
let create_request_bytes = Marshal_size.scalar_overhead + (2 * 16)
let create_reply_bytes = Marshal_size.scalar_overhead + Marshal_size.objref_size

let create_attempt t d model =
  round_trip t d ~model ~iface:"ICoCreateInstance" ~meth:"create"
    ~request_bytes:create_request_bytes ~reply_bytes:create_reply_bytes

let create_forwarded t machine =
  t.n_remote_calls <- t.n_remote_calls + 1;
  t.n_remote_bytes <- t.n_remote_bytes + create_request_bytes + create_reply_bytes;
  (match t.obs with
  | None -> ()
  | Some i ->
      Metrics.inc i.i_remote_calls;
      Metrics.inc_int i.i_remote_bytes (create_request_bytes + create_reply_bytes));
  machine

(* Graceful degradation: the peer factory never answered (or the
   breaker is open), so place the instance with its creator — the
   factory's co-location default — instead of failing the
   instantiation. A failure may have tripped the breaker and moved the
   ladder, so the creator's machine is re-read. *)
let create_degraded t d ~creator ~cname ~classification =
  t.n_fallbacks <- t.n_fallbacks + 1;
  (match t.obs with None -> () | Some i -> Metrics.inc i.i_fallbacks);
  t.logger.Logger.log (Event.Instantiation_degraded { cname; classification });
  Factory.machine_of d.m_factory creator

(* Decide where the new instance lives and pay for forwarding the
   request there. *)
let place_instance t d ~creator ~creator_classification ~classification ~cname =
  let m_factory = d.m_factory in
  (match d.m_watch with
  | None -> ()
  | Some w ->
      (* An instantiation request costs a fixed-size round trip
         whether or not it crosses machines; that pair of messages is
         its measured size. *)
      let now = sim_now t in
      let bytes =
        if Tap.accept w.w_tap then begin
          let b = create_request_bytes + create_reply_bytes in
          Tap.emit w.w_tap ~at_us:now ~kind:Tap.Create ~caller:creator_classification
            ~callee:classification ~bytes:b;
          b
        end
        else 0
      in
      watch_observe t m_factory w ~now ~caller_cls:creator_classification
        ~callee_cls:classification ~bytes);
  let creator_machine = Factory.machine_of m_factory creator in
  let machine = Factory.decide m_factory ~classification ~cname ~creator_machine in
  if machine = creator_machine then machine
  else
    match d.m_pool with
    | None ->
        if (create_attempt t d d.m_faults).Fault.oc_ok then create_forwarded t machine
        else create_degraded t d ~creator ~cname ~classification
    | Some p ->
        (* Forward over the pool-host link the new instance's shard
           lives on (the creator's host when the request travels
           pool-to-client). An open breaker fails fast to the creator,
           spending no communication on a link known to be down. *)
        let h =
          if machine = Constraints.Server then pool_host p classification
          else pool_host p creator_classification
        in
        if not (pool_admits t m_factory p ~host:h ~now:(sim_now t)) then
          create_degraded t d ~creator ~cname ~classification
        else begin
          let ok = (create_attempt t d p.p_faults.(h)).Fault.oc_ok in
          pool_record t m_factory p ~host:h ~ok;
          if ok then create_forwarded t machine
          else create_degraded t d ~creator ~cname ~classification
        end

let rec on_create t (req : Runtime.create_request) =
  match t.obs_tracer with
  | None -> on_create_run t req
  | Some tr ->
      let cname = req.Runtime.req_class.Runtime.cname in
      let id = Trace.open_span tr ~name:cname ~cat:"create" ~at_us:(sim_now t) in
      (match on_create_run t req with
      | h ->
          let inst = Runtime.handle_owner t.ctx h in
          Trace.close_span tr
            ~args:
              [
                ("inst", Jsonu.Int inst);
                ("classification", Jsonu.Int (classification_of t inst));
              ]
            id ~at_us:(sim_now t);
          h
      | exception e ->
          Trace.close_span tr
            ~args:[ ("error", Jsonu.Str (Printexc.to_string e)) ]
            id ~at_us:(sim_now t);
          raise e)

and on_create_run t (req : Runtime.create_request) =
  let cname = req.Runtime.req_class.Runtime.cname in
  let classification = Classifier.classify_stack t.memo ~cname t.stack ~frame:t.frame in
  let creator = caller_inst t in
  let creator_classification = caller_classification t in
  (match t.mode with
  | M_profiling -> ()
  | M_distributed d ->
      let machine =
        place_instance t d ~creator ~creator_classification ~classification ~cname
      in
      (* Record the machine under the instance id we are about to
         allocate; ids are dense so the next instance gets the current
         count. *)
      Factory.record_instance d.m_factory ~inst:(Runtime.instance_count t.ctx) machine);
  let raw = Runtime.raw_create_class t.ctx req.Runtime.req_class ~iid:req.Runtime.req_iid in
  let inst = Runtime.handle_owner t.ctx raw in
  Dense_map.set t.inst_classification inst classification;
  (match t.obs with None -> () | Some i -> Metrics.inc i.i_instantiations);
  if t.listening then
    t.logger.Logger.log (Event.Component_instantiated { inst; cname; classification; creator });
  (* The instantiation request itself is communication: if creator and
     instance end up on different machines, the factory pays a round
     trip. Record it so the analysis engine prices relocated
     instantiations (and Table 5's model covers them). *)
  (match t.mode with
  | M_profiling ->
      let request = create_request_bytes and reply = create_reply_bytes in
      record_profiled t ~caller:creator ~caller_cls:creator_classification ~callee:inst
        ~callee_cls:classification t.create_iface ~remotable:true ~request ~reply;
      if t.listening then
        t.logger.Logger.log
          (Event.Interface_call
             {
               caller = creator;
               caller_classification = creator_classification;
               callee = inst;
               callee_classification = classification;
               iface = "ICoCreateInstance";
               meth = "create";
               remotable = true;
               request_bytes = request;
               reply_bytes = reply;
             })
  | M_distributed _ -> ());
  wrap t raw

let on_query t h ~iid =
  let raw = match Dense_map.get t.wrap_to_raw h with -1 -> h | raw -> raw in
  wrap t (Runtime.raw_query_interface t.ctx raw ~iid)

let on_destroy t inst =
  if t.listening then t.logger.Logger.log (Event.Component_destroyed { inst })

let install ?(loggers = []) ?tracer ?metrics ~classifier ~mode ctx =
  let rte_icc = Icc.create () in
  let sites =
    {
      site_base = Dense_map.create ~absent:(-1);
      site_itype = [||];
      site_meth = [||];
      site_outputs_ifaces = [||];
      nsites = 0;
    }
  in
  let t =
    {
      ctx;
      rte_classifier = classifier;
      memo = Classifier.memo classifier;
      stack = Shadow_stack.create ();
      sites;
      frame = site_frame ctx sites;
      logger = (match loggers with [] -> Logger.null | [ l ] -> l | ls -> Logger.tee ls);
      listening = loggers <> [];
      rte_icc;
      rte_inst_comm = Inst_comm.create ();
      create_iface = Icc.intern rte_icc "ICoCreateInstance";
      inst_classification = Dense_map.create ~absent:(-1);
      raw_to_wrap = Dense_map.create ~absent:(-1);
      wrap_to_raw = Dense_map.create ~absent:(-1);
      mode;
      comm = 0.;
      n_remote_calls = 0;
      n_remote_bytes = 0;
      n_intercepted = 0;
      n_retries = 0;
      n_drops = 0;
      n_spikes = 0;
      n_fallbacks = 0;
      n_unreachable = 0;
      fault_us = 0.;
      pair_index = Key_index.create 16;
      pair_counts = Array.make 64 0;
      obs_tracer = tracer;
      span_arg_cache = [||];
      obs = Option.map make_instruments metrics;
    }
  in
  Runtime.set_create_hook ctx (Some (on_create t));
  Runtime.set_query_hook ctx (Some (on_query t));
  Runtime.set_destroy_hook ctx (Some (on_destroy t));
  t

let install_profiling ?loggers ?tracer ?metrics ~classifier ctx =
  install ?loggers ?tracer ?metrics ~classifier ~mode:M_profiling ctx

let install_distributed ?loggers ?tracer ?metrics ~classifier ~config ctx =
  if not (Float.is_finite config.dc_jitter && config.dc_jitter >= 0.) then
    invalid_arg
      (Printf.sprintf "Rte.install_distributed: dc_jitter must be finite and >= 0 (got %g)"
         config.dc_jitter);
  (match (config.dc_fleet, config.dc_watch) with
  | Some _, Some _ ->
      (* Both layers drive the factory policy; arbitrating between a
         failover rung and a freshly-cut placement is out of scope. *)
      invalid_arg "Rte.install_distributed: dc_fleet and dc_watch cannot be combined"
  | _ -> ());
  (* The main program lives on the client. *)
  let factory = Factory.create ?metrics config.dc_factory_policy in
  Factory.record_instance factory ~inst:Runtime.main_instance Constraints.Client;
  let watch_state =
    Option.map
      (fun wc ->
        let dist =
          match config.dc_factory_policy with
          | Factory.By_classification d -> d
          | _ ->
              invalid_arg
                "Rte.install_distributed: dc_watch requires a By_classification policy"
        in
        let graph = Analysis.Session.graph wc.wc_session in
        let main = Icc_graph.main_node graph in
        let cls v = if v = main then -1 else v in
        (* Graph pairs in pair-id order, mapped from node space to
           unordered classification space — the window's slot layout,
           so a window snapshot is directly a scale vector. *)
        let pairs =
          Array.init (Icc_graph.pair_count graph) (fun p ->
              let a, b = Icc_graph.pair graph p in
              let ca = cls a and cb = cls b in
              (min ca cb, max ca cb))
        in
        let msgs = Icc_graph.pair_messages graph in
        let total = Array.fold_left ( +. ) 0. msgs in
        let pbytes = Icc_graph.pair_bytes graph in
        let byte_total = Array.fold_left ( +. ) 0. pbytes in
        let signature weights =
          let s = Drift.create () in
          Array.iteri (fun p key -> Drift.add s key weights.(p)) pairs;
          s
        in
        {
          w_config = wc;
          w_window = Window.create ~half_life_us:wc.wc_half_life_us ~pairs;
          w_tap =
            Tap.create ~sample_every:wc.wc_sample_every ~seed:(watch_seed config.dc_seed)
              (Option.value ~default:Tap.null_sink wc.wc_tap);
          w_obs = Option.map make_watch_instruments metrics;
          w_safe = Analysis.Session.migration_safety wc.wc_session;
          w_prof_share = Array.map (fun m -> m /. total) msgs;
          w_prof_byte_share =
            (if byte_total = 0. then Array.map (fun _ -> 0.) pbytes
             else Array.map (fun b -> b /. byte_total) pbytes);
          w_scale =
            {
              Icc_graph.sc_messages = Array.make (Icc_graph.pair_count graph) 1.;
              sc_bytes = Array.make (Icc_graph.pair_count graph) 1.;
            };
          w_baseline = signature msgs;
          w_baseline_bytes = signature pbytes;
          w_current = dist;
          w_last_switch_us = 0.;
          w_since_check = 0;
          w_checks = 0;
          w_detections = 0;
          w_repartitions = 0;
          w_migrations = 0;
          w_unchanged = 0;
          w_rejected = 0;
          w_last_similarity = 1.;
          w_timeline = [];
        })
      config.dc_watch
  in
  let faults =
    Option.map (fun sp -> Fault.make ~seed:(fault_seed config.dc_seed) sp) config.dc_faults
  in
  let pool_state =
    Option.map
      (fun fc ->
        let pl = fc.fc_ladder in
        let rung0 = Fallback.pool_rung_at pl 0 in
        let hosts = rung0.Fallback.pr_shape.Pool.sh_hosts in
        let base = Fallback.pool_base pl in
        let safe = Fallback.migration_safety_table base in
        let component = Fallback.pool_components pl in
        let comp_safe = Array.make (max 1 (Array.length component)) true in
        Array.iteri
          (fun c rep ->
            if not (c < Array.length safe && safe.(c)) then comp_safe.(rep) <- false)
          component;
        let shard_count = rung0.Fallback.pr_shard_count in
        (* Host-link seeding rule: the overlay-free link of a one-host
           pool is the run's global link, so it shares the global fault
           model and its stream; every other host link draws from its
           own stream, so adding hosts never perturbs the global
           draws. *)
        let host_faults h =
          let make = Fault.make ~seed:(host_fault_seed config.dc_seed h) in
          match List.assoc_opt h fc.fc_host_faults with
          | None when hosts = 1 -> faults
          | None -> Option.map make config.dc_faults
          | Some sp -> Some (make sp)
        in
        let obs = if hosts > 1 then Option.map make_fleet_instruments metrics else None in
        (match obs with
        | None -> ()
        | Some fi ->
            Metrics.set fi.fi_hosts (float_of_int hosts);
            Metrics.set fi.fi_shards (float_of_int shard_count));
        {
          p_config = fc;
          p_ladder = pl;
          p_health = Array.init hosts (fun _ -> Health.create ~policy:fc.fc_health ());
          p_faults = Array.init hosts host_faults;
          p_lobs = Option.map make_ladder_instruments metrics;
          p_obs = obs;
          p_safe = safe;
          p_component = component;
          p_comp_safe = comp_safe;
          p_window =
            Window.create ~half_life_us:fc.fc_half_life_us
              ~pairs:(Array.init shard_count (fun s -> (s, s)));
          p_rung = 0;
          p_shard_of = Array.copy rung0.Fallback.pr_shard_of;
          p_active = Array.init shard_count (fun s -> Pool.host_of rung0.Fallback.pr_shape s);
          p_replicated = Array.copy rung0.Fallback.pr_replicated;
          p_since_check = 0;
          p_opens = 0;
          p_closes = 0;
          p_failovers = 0;
          p_failbacks = 0;
          p_migrations = 0;
          p_stranded = 0;
          p_rescued = 0;
          p_promotions = 0;
          p_splits = 0;
          p_resizes = 0;
          p_inter_host = 0;
        })
      config.dc_fleet
  in
  let rec d =
    {
      m_factory = factory;
      m_network = config.dc_network;
      m_jitter = config.dc_jitter;
      m_rng = Prng.create (jitter_seed config.dc_seed);
      m_faults = faults;
      m_retry = config.dc_retry;
      m_retry_rng = Prng.create (retry_seed config.dc_seed);
      m_watch = watch_state;
      m_pool = pool_state;
      m_request_bytes = 0;
      m_reply_bytes = 0;
      m_request_us = (fun () -> leg_us d d.m_request_bytes);
      m_reply_us = (fun () -> leg_us d d.m_reply_bytes);
    }
  in
  install ?loggers ?tracer ?metrics ~classifier ~mode:(M_distributed d) ctx

let uninstall t =
  Runtime.set_create_hook t.ctx None;
  Runtime.set_query_hook t.ctx None;
  Runtime.set_destroy_hook t.ctx None

let icc t = t.rte_icc
let inst_comm t = t.rte_inst_comm
let classifier t = t.rte_classifier

let instance_classifications t =
  Dense_map.fold (fun inst c acc -> (inst, c) :: acc) t.inst_classification []

let instances_created t = Dense_map.fold (fun inst _ acc -> inst :: acc) t.inst_classification []

let factory t =
  match t.mode with M_profiling -> None | M_distributed { m_factory; _ } -> Some m_factory

let call_counts t =
  let pair p = (Key_index.key_a t.pair_index p, Key_index.key_b t.pair_index p) in
  let ids = Array.init (Key_index.length t.pair_index) Fun.id in
  Array.sort
    (fun p q ->
      let (a, b) = pair p and (c, d) = pair q in
      let o = Int.compare a c in
      if o <> 0 then o else Int.compare b d)
    ids;
  Array.fold_right (fun p acc -> (pair p, t.pair_counts.(p)) :: acc) ids []

let comm_us t = t.comm
let remote_calls t = t.n_remote_calls
let remote_bytes t = t.n_remote_bytes
let intercepted_calls t = t.n_intercepted

let watch_of t =
  match t.mode with
  | M_profiling | M_distributed { m_watch = None; _ } -> None
  | M_distributed { m_watch = Some w; _ } -> Some w

let watch_timeline t = match watch_of t with None -> [] | Some w -> List.rev w.w_timeline
let watch_placement t = Option.map (fun w -> w.w_current) (watch_of t)

let watch_window_signature t =
  Option.map (fun w -> Window.signature_at w.w_window ~now_us:(sim_now t)) (watch_of t)

let watch_tap_counts t =
  Option.map (fun w -> (Tap.offered w.w_tap, Tap.sampled w.w_tap)) (watch_of t)

let pool_of t =
  match t.mode with
  | M_profiling | M_distributed { m_pool = None; _ } -> None
  | M_distributed { m_pool = Some p; _ } -> Some p

type fleet_stats = {
  fs_breaker_opens : int;
  fs_breaker_closes : int;
  fs_failovers : int;
  fs_failbacks : int;
  fs_migrations : int;
  fs_stranded_calls : int;
  fs_rescued_calls : int;
  fs_promotions : int;
  fs_splits : int;
  fs_resizes : int;
  fs_inter_host_calls : int;
  fs_final_rung : int;
  fs_final_hosts : int;
  fs_final_shards : int;
}

let fleet_stats t =
  Option.map
    (fun p ->
      {
        fs_breaker_opens = p.p_opens;
        fs_breaker_closes = p.p_closes;
        fs_failovers = p.p_failovers;
        fs_failbacks = p.p_failbacks;
        fs_migrations = p.p_migrations;
        fs_stranded_calls = p.p_stranded;
        fs_rescued_calls = p.p_rescued;
        fs_promotions = p.p_promotions;
        fs_splits = p.p_splits;
        fs_resizes = p.p_resizes;
        fs_inter_host_calls = p.p_inter_host;
        fs_final_rung = p.p_rung;
        fs_final_hosts = (pool_shape p).Pool.sh_hosts;
        fs_final_shards = Array.length p.p_active;
      })
    (pool_of t)

let fleet_shard_table t =
  Option.map (fun p -> (Array.copy p.p_shard_of, Array.copy p.p_active)) (pool_of t)

type stats = {
  st_comm_us : float;
  st_remote_calls : int;
  st_remote_bytes : int;
  st_intercepted : int;
  st_retries : int;
  st_drops : int;
  st_spikes : int;
  st_fallbacks : int;
  st_unreachable : int;
  st_fault_us : float;
  (* Ladder counters — all zero unless a ladder was installed. *)
  st_breaker_opens : int;
  st_breaker_closes : int;
  st_failovers : int;
  st_failbacks : int;
  st_migrations : int;
  st_stranded_calls : int;
  st_rescued_calls : int;
  st_final_rung : int;
  (* Watch counters — all zero (similarity 1) unless a watch was
     installed. *)
  st_drift_checks : int;
  st_drift_detections : int;
  st_repartitions : int;
  st_watch_migrations : int;
  st_unchanged_cuts : int;
  st_rejected_cuts : int;
  st_last_similarity : float;
}

let stats t =
  let pl f = match pool_of t with None -> 0 | Some p -> f p in
  let w = watch_of t in
  let wi f = match w with None -> 0 | Some w -> f w in
  {
    st_comm_us = t.comm;
    st_remote_calls = t.n_remote_calls;
    st_remote_bytes = t.n_remote_bytes;
    st_intercepted = t.n_intercepted;
    st_retries = t.n_retries;
    st_drops = t.n_drops;
    st_spikes = t.n_spikes;
    st_fallbacks = t.n_fallbacks;
    st_unreachable = t.n_unreachable;
    st_fault_us = t.fault_us;
    st_breaker_opens = pl (fun p -> p.p_opens);
    st_breaker_closes = pl (fun p -> p.p_closes);
    st_failovers = pl (fun p -> p.p_failovers);
    st_failbacks = pl (fun p -> p.p_failbacks);
    st_migrations = pl (fun p -> p.p_migrations);
    st_stranded_calls = pl (fun p -> p.p_stranded);
    st_rescued_calls = pl (fun p -> p.p_rescued);
    st_final_rung = pl (fun p -> p.p_rung);
    st_drift_checks = wi (fun w -> w.w_checks);
    st_drift_detections = wi (fun w -> w.w_detections);
    st_repartitions = wi (fun w -> w.w_repartitions);
    st_watch_migrations = wi (fun w -> w.w_migrations);
    st_unchanged_cuts = wi (fun w -> w.w_unchanged);
    st_rejected_cuts = wi (fun w -> w.w_rejected);
    st_last_similarity = (match w with None -> 1. | Some w -> w.w_last_similarity);
  }
