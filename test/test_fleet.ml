(* The replicated server fleet: k-way pool execution, per-replica
   failover, and the pool-elastic ladder.  The promotion trace below is
   hand-computed from the fixed retry policy and the default breaker
   (failure threshold 2): the numbers in the assertions are derived in
   the comments, not transcribed from a run. *)

open Coign_idl
open Coign_com
open Coign_netsim
open Coign_core
open Coign_apps
open Coign_sim
open Coign_util

(* --- A two-component fleet app --------------------------------------
   Front (client) creates Back (server) and pumps 1000-byte blobs at
   it.  On 10BaseT the forwarded creation costs 1456.8 us, so a
   per-host fault window opening at t = 2000 us lets the creation
   clear and then partitions the store traffic. *)

let fixed_retry =
  {
    Fault.rp_timeout_us = 1_000.;
    rp_max_attempts = 3;
    rp_backoff_us = 500.;
    rp_backoff_mult = 2.;
    rp_backoff_jitter = 0.;
  }

let i_front =
  Itype.declare "IFltFront" [ Idl_type.method_ "run" [ Idl_type.param "rounds" Idl_type.Int32 ] ]

let i_back =
  Itype.declare "IFltBack"
    [ Idl_type.method_ ~ret:Idl_type.Int32 "store" [ Idl_type.param "data" Idl_type.Blob ] ]

let c_back =
  Runtime.define_class "Flt.Back" (fun _ctx _self ->
      let stored = ref 0 in
      [
        Combuild.iface i_back
          [
            ( "store",
              fun ctx args ->
                stored := !stored + Combuild.get_blob args 0;
                Runtime.charge ctx ~us:10.;
                Combuild.echo args (Value.Int !stored) );
          ];
      ])

let c_front =
  Runtime.define_class "Flt.Front" (fun ctx0 _self ->
      let back = Runtime.create_instance ctx0 c_back.Runtime.clsid ~iid:(Itype.iid i_back) in
      [
        Combuild.iface i_front
          [
            ( "run",
              fun ctx args ->
                let rounds = Combuild.get_int args 0 in
                for _ = 1 to rounds do
                  ignore (Runtime.call_named ctx back "store" [ Value.Blob 1_000 ])
                done;
                Combuild.echo args Value.Unit );
          ];
      ])

let registry () = Runtime.registry [ c_front; c_back ]

let run_scenario ctx rounds =
  let front = Runtime.create_instance ctx c_front.Runtime.clsid ~iid:(Itype.iid i_front) in
  ignore (Runtime.call_named ctx front "run" [ Value.Int rounds ])

(* Profile the app once to get a classifier and an analysis session —
   the same two-stage machinery [Adps.analysis_session] drives, without
   an image.  Classification order is deterministic, so the profiled
   classifier keeps working for every later distributed run. *)
let profiled =
  lazy
    (let ctx = Runtime.create_ctx (registry ()) in
     let classifier = Classifier.create Classifier.Ifcb in
     let rte = Rte.install_profiling ~classifier ctx in
     run_scenario ctx 4;
     Rte.uninstall rte;
     let icc = Rte.icc rte in
     let session = Analysis.Session.create ~classifier ~icc ~constraints:Constraints.empty () in
     let n = Classifier.classification_count classifier in
     let cback = ref (-1) in
     for c = 0 to n - 1 do
       if String.equal (Classifier.class_of_classification classifier c) "Flt.Back" then
         cback := c
     done;
     if !cback < 0 then Alcotest.fail "Flt.Back was never classified";
     (classifier, session, n, !cback))

let dist placement =
  {
    Analysis.placement;
    cut_ns = 0;
    predicted_comm_us = 0.;
    server_count =
      Array.fold_left (fun a l -> if l = Constraints.Server then a + 1 else a) 0 placement;
    node_count = Array.length placement;
    algorithm = Coign_flowgraph.Mincut.Dinic;
  }

let mini_pool_ladder ~hosts =
  let _, session, n, cback = Lazy.force profiled in
  let primary = Array.make n Constraints.Client in
  primary.(cback) <- Constraints.Server;
  let base =
    Fallback.of_rungs
      ~migration_safe:(Array.make n true)
      [
        { Fallback.rg_name = "primary"; rg_distribution = dist primary };
        { Fallback.rg_name = "all-client"; rg_distribution = dist (Array.make n Constraints.Client) };
      ]
  in
  ( dist primary,
    Fallback.pool_ladder ~hosts session ~net:(Net_profiler.exact Network.ethernet_10) base )

let run_fleet ?metrics ?host_faults ~rounds pl primary =
  let classifier, _, _, _ = Lazy.force profiled in
  let recorder, events = Logger.event_recorder () in
  let ctx = Runtime.create_ctx (registry ()) in
  let rte =
    Rte.install_distributed ?metrics ~loggers:[ recorder ] ~classifier
      ~config:
        {
          Rte.dc_factory_policy = Factory.By_classification primary;
          dc_network = Network.ethernet_10;
          dc_jitter = 0.;
          dc_seed = 1L;
          dc_faults = None;
          dc_retry = fixed_retry;
          dc_fleet = Some (Rte.fleet ?host_faults pl);
          dc_watch = None;
        }
      ctx
  in
  run_scenario ctx rounds;
  let fs = Option.get (Rte.fleet_stats rte) in
  let st = Rte.stats rte in
  Rte.uninstall rte;
  (fs, st, events ())

(* --- Hand-computed promotion trace under a single-host crash --------- *)

let test_promotion_trace_hand_computed () =
  let _, _, _, cback = Lazy.force profiled in
  let primary, pl = mini_pool_ladder ~hosts:2 in
  (* The shard map is fixed across the ladder: with every component a
     single migration-safe classification, Back's shard is the plain
     keyed hash of its classification id, and its primary host is the
     shard modulo the pool size. *)
  let rung0 = Fallback.pool_rung_at pl 0 in
  let expected_shard = Pool.shard_of (Pool.Hash 2) cback in
  Alcotest.(check int) "ladder shards Back by keyed hash" expected_shard
    rung0.Fallback.pr_shard_of.(cback);
  let crash = Pool.host_of rung0.Fallback.pr_shape expected_shard in
  let survivor = 1 - crash in
  (* Crash Back's primary host from t = 2 ms onward.  The trace is then
     fully determined:
       - the forwarded creation (1456.8 us on 10BaseT) clears;
       - the first store attempt inside the window fails its retry
         cycle, [go] records failure 1 and retries the same host;
       - the second failed cycle is consecutive failure 2 = the default
         threshold, so the breaker opens and — in the same transition —
         shard [s] is promoted to the only other host, which is healthy;
       - the re-read link routes the very same call to the survivor,
         where it succeeds; every later store follows it.
     So: 1 open, 1 promotion, nothing stranded (after the open the call
     targets the survivor's closed breaker), nothing rescued locally
     (the callee never leaves the server side), no rung switch, and the
     run is far shorter than the 50 ms cooloff, so no probe ever
     reopens or closes the breaker. *)
  let window = { Fault.zero with Fault.fs_partitions_us = [ (2_000., 1_000_000.) ] } in
  let fs, st, events = run_fleet ~host_faults:[ (crash, window) ] ~rounds:10 pl primary in
  Alcotest.(check int) "one breaker open" 1 fs.Rte.fs_breaker_opens;
  Alcotest.(check int) "no breaker close" 0 fs.Rte.fs_breaker_closes;
  Alcotest.(check int) "one promotion" 1 fs.Rte.fs_promotions;
  Alcotest.(check int) "no rung switch down" 0 fs.Rte.fs_failovers;
  Alcotest.(check int) "no rung switch up" 0 fs.Rte.fs_failbacks;
  Alcotest.(check int) "no resize" 0 fs.Rte.fs_resizes;
  Alcotest.(check int) "no split" 0 fs.Rte.fs_splits;
  Alcotest.(check int) "no stranded call" 0 fs.Rte.fs_stranded_calls;
  Alcotest.(check int) "no local rescue" 0 fs.Rte.fs_rescued_calls;
  Alcotest.(check int) "still on the widest rung" 0 fs.Rte.fs_final_rung;
  Alcotest.(check int) "both hosts standing" 2 fs.Rte.fs_final_hosts;
  Alcotest.(check int) "both shards mapped" 2 fs.Rte.fs_final_shards;
  (* The event log pins the trace bit for bit: exactly one open
     followed by exactly one promotion, with the hand-derived shard and
     host ids, both inside the fault window. *)
  let fleet_events =
    List.filter
      (function
        | Event.Breaker_opened _ | Event.Breaker_closed _ | Event.Failover _ | Event.Failback _
        | Event.Replica_promoted _ | Event.Shard_split _ | Event.Pool_resized _ ->
            true
        | _ -> false)
      events
  in
  (match fleet_events with
  | [ Event.Breaker_opened o; Event.Replica_promoted p ] ->
      Alcotest.(check int) "opened at the failure threshold" 2 o.failures;
      Alcotest.(check bool) "opened inside the window" true (o.at_us >= 2_000);
      Alcotest.(check int) "promoted Back's shard" expected_shard p.shard;
      Alcotest.(check int) "promoted off the crashed host" crash p.from_host;
      Alcotest.(check int) "promoted onto the survivor" survivor p.to_host;
      Alcotest.(check bool) "promotion at the open" true (p.at_us >= o.at_us)
  | evs ->
      Alcotest.failf "expected [breaker_opened; replica_promoted], got %d fleet events"
        (List.length evs));
  (* Availability: the promoted replica keeps every store remote, so
     the crashed run serves exactly what the clean pool serves. *)
  let clean_fs, clean_st, _ = run_fleet ~rounds:10 pl primary in
  Alcotest.(check int) "clean pool never opens" 0 clean_fs.Rte.fs_breaker_opens;
  Alcotest.(check int) "clean pool never promotes" 0 clean_fs.Rte.fs_promotions;
  Alcotest.(check int) "every remote call still served"
    clean_st.Rte.st_remote_calls st.Rte.st_remote_calls;
  Alcotest.(check int) "every intercepted call still ran"
    clean_st.Rte.st_intercepted st.Rte.st_intercepted

(* --- Ladder metrics ---------------------------------------------------- *)

(* The value of an unlabelled series in a registry's text exposition. *)
let exported reg name =
  let prefix = name ^ " " in
  let line =
    List.find_opt
      (fun l -> String.starts_with ~prefix l)
      (String.split_on_char '\n' (Coign_obs.Metrics.prometheus reg))
  in
  Option.map
    (fun l ->
      float_of_string (String.sub l (String.length prefix) (String.length l - String.length prefix)))
    line

let has_family reg prefix =
  List.exists
    (fun l -> String.starts_with ~prefix l)
    (String.split_on_char '\n' (Coign_obs.Metrics.prometheus reg))

let test_pool_feeds_ladder_metrics () =
  (* The crash trace above, observed: every ladder run feeds the
     breaker and ladder instruments, whatever its host count. *)
  let _, _, _, cback = Lazy.force profiled in
  let primary, pl = mini_pool_ladder ~hosts:2 in
  let rung0 = Fallback.pool_rung_at pl 0 in
  let crash = Pool.host_of rung0.Fallback.pr_shape rung0.Fallback.pr_shard_of.(cback) in
  let window = { Fault.zero with Fault.fs_partitions_us = [ (2_000., 1_000_000.) ] } in
  let reg = Coign_obs.Metrics.registry () in
  let fs, _, _ = run_fleet ~metrics:reg ~host_faults:[ (crash, window) ] ~rounds:10 pl primary in
  Alcotest.(check int) "the crash opened a breaker" 1 fs.Rte.fs_breaker_opens;
  Alcotest.(check (option (float 0.))) "breaker opens exported"
    (Some (float_of_int fs.Rte.fs_breaker_opens))
    (exported reg "coign_resilience_breaker_opens_total");
  Alcotest.(check (option (float 0.))) "promotions exported"
    (Some (float_of_int fs.Rte.fs_promotions))
    (exported reg "coign_fleet_promotions_total");
  (* A one-host ladder keeps the resilience metric set: breaker and
     ladder instruments, no fleet family. *)
  let primary, pl1 = mini_pool_ladder ~hosts:1 in
  let reg1 = Coign_obs.Metrics.registry () in
  let fs1, _, _ = run_fleet ~metrics:reg1 ~host_faults:[ (0, window) ] ~rounds:10 pl1 primary in
  Alcotest.(check (option (float 0.))) "one-host breaker opens exported"
    (Some (float_of_int fs1.Rte.fs_breaker_opens))
    (exported reg1 "coign_resilience_breaker_opens_total");
  Alcotest.(check bool) "no fleet family on one host" false (has_family reg1 "coign_fleet_")

let test_max_probe_rounds_rejected () =
  let _, pl = mini_pool_ladder ~hosts:2 in
  let rejects name f =
    Alcotest.(check bool) name true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  rejects "fleet rejects zero probe rounds" (fun () -> Rte.fleet ~max_probe_rounds:0 pl);
  rejects "resilience rejects zero probe rounds" (fun () ->
      Rte.resilience ~max_probe_rounds:0 (Fallback.pool_base pl));
  ignore (Rte.fleet ~max_probe_rounds:1 pl)

(* --- Shard-map stability --------------------------------------------- *)

let qcheck_hash_shard_stable =
  QCheck.Test.make ~count:500 ~name:"hash shard map is pure and in range"
    QCheck.(pair (int_range 1 8) (int_range (-1) 999))
    (fun (k, c) ->
      let m = Pool.Hash k in
      let s = Pool.shard_of m c in
      s >= 0 && s < Pool.shard_count m && s = Pool.shard_of m c)

let qcheck_range_shard_semantics =
  (* A Range map's shard is the number of split points at or below the
     key — monotone in the key, bounded by the shard count. *)
  let gen =
    QCheck.Gen.(
      pair (list_size (int_range 1 5) (int_range 0 100)) (int_range (-1) 120)
      |> map (fun (bounds, c) ->
             let bounds = List.sort_uniq compare bounds in
             (Array.of_list bounds, c)))
  in
  let print (bounds, c) =
    Printf.sprintf "bounds=[%s] c=%d"
      (String.concat ";" (Array.to_list (Array.map string_of_int bounds)))
      c
  in
  QCheck.Test.make ~count:500 ~name:"range shard map counts split points"
    (QCheck.make ~print gen)
    (fun (bounds, c) ->
      QCheck.assume (Array.length bounds > 0);
      let m = Pool.Range bounds in
      let reference = Array.fold_left (fun a b -> if b <= c then a + 1 else a) 0 bounds in
      Pool.shard_of m c = reference
      && Pool.shard_of m c <= Pool.shard_of m (c + 1)
      && Pool.shard_of m c < Pool.shard_count m)

let qcheck_replica_ring =
  QCheck.Test.make ~count:500 ~name:"replica ring: primary first, distinct, round-robin"
    QCheck.(triple (int_range 1 6) (int_range 1 6) (int_range 0 20))
    (fun (k, r, s) ->
      let shape = Pool.shape ~replicas:(min r k) k in
      let primary = Pool.host_of shape s in
      let ring = Pool.replica_hosts shape s in
      primary = s mod k
      && List.hd ring = primary
      && List.length ring = shape.Pool.sh_replicas
      && List.length (List.sort_uniq compare ring) = List.length ring)

let test_ladder_shards_stable_across_rungs () =
  (* "A key's shard never changes as the pool breathes": wherever a
     classification is server-side on two rungs, it sits in the same
     shard on both. *)
  let _, pl = mini_pool_ladder ~hosts:4 in
  let rungs = List.init (Fallback.pool_rung_count pl) (Fallback.pool_rung_at pl) in
  List.iter
    (fun (r1 : Fallback.pool_rung) ->
      List.iter
        (fun (r2 : Fallback.pool_rung) ->
          Array.iteri
            (fun c s1 ->
              let s2 = r2.Fallback.pr_shard_of.(c) in
              if s1 >= 0 && s2 >= 0 then
                Alcotest.(check int)
                  (Printf.sprintf "shard of %d stable between %s and %s" c r1.Fallback.pr_name
                     r2.Fallback.pr_name)
                  s1 s2)
            r1.Fallback.pr_shard_of)
        rungs)
    rungs

(* --- Pool of one is the PR 5 resilience path, bit for bit ------------ *)

let prepared_octarine =
  lazy
    (let app = Suite.find_app "octarine" in
     let sc = App.scenario app "o_oldwp0" in
     let image = Adps.instrument app.App.app_image in
     let profiled, _ = Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run in
     let analyzed, _ =
       Adps.analyze ~image:profiled ~net:(Net_profiler.exact Network.ethernet_10) ()
     in
     (app, profiled, analyzed, sc))

let test_pool1_bit_identity () =
  let app, profiled, image, sc = Lazy.force prepared_octarine in
  let net = Net_profiler.exact Network.ethernet_10 in
  let base = Adps.fallback_ladder ~image:profiled ~net () in
  let pl = Adps.pool_fallback_ladder ~hosts:1 ~image:profiled ~net () in
  (* Drops make the verdicts depend on the stream each host link draws
     from, which partitions alone do not. *)
  let faults =
    { Fault.zero with Fault.fs_drop_rate = 0.1; fs_partitions_us = [ (50_000., 550_000.) ] }
  in
  let resil =
    Adps.execute ~image ~registry:app.App.app_registry ~network:Network.ethernet_10
      ~seed:0x5EEDL ~faults ~resilience:(Rte.resilience base) sc.App.sc_run
  in
  let fleet_es, fstats =
    Adps.execute_fleet ~image ~registry:app.App.app_registry ~network:Network.ethernet_10
      ~seed:0x5EEDL ~faults ~fleet:(Rte.fleet pl) sc.App.sc_run
  in
  Alcotest.(check bool) "pool-1 run is bit-identical to the two-host ladder" true
    (resil = fleet_es);
  Alcotest.(check int) "one host" 1 fstats.Rte.fs_final_hosts;
  Alcotest.(check int) "one shard" 1 fstats.Rte.fs_final_shards;
  Alcotest.(check int) "no promotions on a pool of one" 0 fstats.Rte.fs_promotions;
  Alcotest.(check int) "no resizes on a pool of one" 0 fstats.Rte.fs_resizes;
  (* Host-link seeding rule: the one-host link draws from the global
     fault stream, so under drops alone — no breaker trip, no exhausted
     retry cycle — the ladder run is the retry-only run, bit for bit. *)
  let drops = { Fault.zero with Fault.fs_drop_rate = 0.1 } in
  let run ?resilience () =
    Adps.execute ~image ~registry:app.App.app_registry ~network:Network.ethernet_10
      ~seed:0x5EEDL ~faults:drops ?resilience sc.App.sc_run
  in
  let retry_only = run () and lossy = run ~resilience:(Rte.resilience base) () in
  Alcotest.(check bool) "drops were drawn" true (retry_only.Adps.es_drops > 0);
  Alcotest.(check int) "no exhausted retry cycle" 0 retry_only.Adps.es_unreachable;
  Alcotest.(check int) "no breaker trip" 0 lossy.Adps.es_breaker_opens;
  Alcotest.(check bool) "one-host link draws the global fault stream" true (retry_only = lossy);
  (* The session-free one-host ladder [Rte.resilience] runs is the
     session-built pool of one. *)
  let one = Fallback.pool_of_one base in
  Alcotest.(check int) "same rung count" (Fallback.pool_rung_count pl)
    (Fallback.pool_rung_count one);
  for i = 0 to Fallback.pool_rung_count pl - 1 do
    let a = Fallback.pool_rung_at pl i and b = Fallback.pool_rung_at one i in
    Alcotest.(check string) "rung name" a.Fallback.pr_name b.Fallback.pr_name;
    Alcotest.(check bool) (a.Fallback.pr_name ^ " distribution") true
      (a.Fallback.pr_distribution = b.Fallback.pr_distribution);
    Alcotest.(check (array int)) (a.Fallback.pr_name ^ " shard table") a.Fallback.pr_shard_of
      b.Fallback.pr_shard_of;
    Alcotest.(check (array bool)) (a.Fallback.pr_name ^ " replication") a.Fallback.pr_replicated
      b.Fallback.pr_replicated
  done

(* --- The grid is deterministic across domains ------------------------ *)

let test_fleetsim_deterministic_across_domains () =
  let app, image, _, sc = Lazy.force prepared_octarine in
  let go pool =
    Fault_grid.fleet_json
      (Fault_grid.run ?pool ~seed:0x5EEDL ~engines:(Fault_grid.fleet_engines ~pools:2)
         ~faults:(Fault_grid.fleet_faults ~start_us:50_000. ~length_us:500_000.)
         ~image ~registry:app.App.app_registry ~network:Network.ethernet_10 sc.App.sc_run)
  in
  let j1 = go None in
  let pool = Parallel.create ~domains:3 () in
  let j4 = Fun.protect ~finally:(fun () -> Parallel.shutdown pool) (fun () -> go (Some pool)) in
  Alcotest.(check string) "grid JSON byte-identical across domain counts" j1 j4;
  match Jsonu.parse j1 with
  | Ok (Jsonu.Arr cells) ->
      Alcotest.(check int) "one JSON object per cell" 6 (List.length cells);
      List.iter
        (fun c ->
          if Jsonu.member "pool" c = Some (Jsonu.Int 1) then
            Alcotest.(check bool) "pool-1 cell identical to resilience" true
              (Jsonu.member "identical" c = Some (Jsonu.Bool true)))
        cells
  | Ok _ -> Alcotest.fail "grid JSON is not an array"
  | Error e -> Alcotest.fail ("grid JSON does not parse: " ^ e)

(* --- The fleet preset over three apps ----------------------------------- *)

(* Pools of one to three against the clean, single-host crash and global
   partition regimes (500 ms from 50 ms) on three apps. A pool of one is
   the resilience configuration in every cell; under the crash, every
   replicated pool keeps strictly more of the clean run's remote calls
   than the ladder, which has retreated to all-client, on at least two
   of the three apps. *)
let test_fleet_grid_three_apps () =
  let faults = Fault_grid.fleet_faults ~start_us:50_000. ~length_us:500_000. in
  let crash = List.find (fun f -> f.Fault_grid.f_scope = Fault_grid.Host0) faults in
  let improved =
    List.filter
      (fun (name, sc_id) ->
        let app = Suite.find_app name in
        let sc = App.scenario app sc_id in
        let image = Adps.instrument app.App.app_image in
        let image, _ = Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run in
        let g =
          Fault_grid.run ~seed:0x5EEDL ~engines:(Fault_grid.fleet_engines ~pools:3) ~faults
            ~image ~registry:app.App.app_registry ~network:Network.ethernet_10 sc.App.sc_run
        in
        let stats e f = (Fault_grid.outcome g e f).Fault_grid.o_stats in
        List.iter
          (fun f ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: pool 1 == resilience, %s window %g us" sc_id
                 (if f.Fault_grid.f_scope = Fault_grid.Host0 then "host-0" else "global")
                 f.Fault_grid.f_length_us)
              true
              (stats (Fault_grid.Pool 1) f = stats Fault_grid.Resilience f))
          faults;
        let ladder = Fault_grid.served g (stats Fault_grid.Resilience crash) in
        List.for_all
          (fun k -> Fault_grid.served g (stats (Fault_grid.Pool k) crash) > ladder)
          [ 2; 3 ])
      [ ("octarine", "o_oldwp0"); ("photodraw", "p_oldmsr"); ("benefits", "b_vueone") ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "replicated pools out-serve the ladder under the crash on %s (need 2 of 3)"
       (String.concat ", " (List.map snd improved)))
    true
    (List.length improved >= 2)

(* --- The three presets agree through the driver ------------------------ *)

let test_presets_agree () =
  let app, profiled, analyzed, sc = Lazy.force prepared_octarine in
  let run engines faults image =
    Fault_grid.run ~seed:0xA9EEL ~jitter:0.02 ~engines ~faults ~image
      ~registry:app.App.app_registry ~network:Network.ethernet_10 sc.App.sc_run
  in
  let stats g engine f = (Fault_grid.outcome g engine f).Fault_grid.o_stats in
  let faults =
    Fault_grid.drop_partition_faults ~drop_rates:[ 0.; 0.1 ] ~partitions_us:[ 0.; 500_000. ]
      ~start_us:50_000.
  in
  (* faultsim runs the stored distribution, cut here on the exact
     network model; resilience cuts the same distribution itself, so
     its retry-only side is the faultsim cell. *)
  let faultsim = run [ Fault_grid.Retry ] faults analyzed in
  let resilience = run [ Fault_grid.Retry; Fault_grid.Resilience ] faults profiled in
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "faultsim = resilience baseline at drop %g, window %g us"
           f.Fault_grid.f_drop_rate f.Fault_grid.f_length_us)
        true
        (stats faultsim Fault_grid.Retry f = stats resilience Fault_grid.Retry f))
    faults;
  (* The fleet's partition regime is the same network-wide window, so
     its resilience baseline is the resilience preset's resilient side. *)
  let fleet =
    run (Fault_grid.fleet_engines ~pools:2)
      (Fault_grid.fleet_faults ~start_us:50_000. ~length_us:500_000.)
      profiled
  in
  let partition =
    List.find
      (fun f -> f.Fault_grid.f_scope = Fault_grid.Global && f.Fault_grid.f_length_us > 0.)
      fleet.Fault_grid.g_faults
  in
  let window =
    List.find
      (fun f -> f.Fault_grid.f_drop_rate = 0. && f.Fault_grid.f_length_us > 0.)
      faults
  in
  Alcotest.(check bool) "resilient side = fleet partition baseline" true
    (stats resilience Fault_grid.Resilience window = stats fleet Fault_grid.Resilience partition);
  Alcotest.(check bool) "the partition is a real fault" true
    ((stats fleet Fault_grid.Resilience partition).Adps.es_failovers > 0)

(* --- Golden CLI output ------------------------------------------------ *)

let exe = "../bin/coign.exe"
let golden = "golden/fleet_octarine.txt"

let with_tmp f =
  let dir = Filename.temp_file "coign_fleet" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_fleet_golden () =
  if not (Sys.file_exists exe && Sys.file_exists golden) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let img = Filename.concat dir "oct.img" in
        let out = Filename.concat dir "fleet.txt" in
        let quiet args = Sys.command (Filename.quote_command exe args ^ " > /dev/null 2>&1") in
        Alcotest.(check int) "instrument" 0 (quiet [ "instrument"; "--app"; "octarine"; "-o"; img ]);
        Alcotest.(check int) "profile" 0
          (quiet [ "profile"; img; "--scenario"; "o_oldwp0"; "-o"; img ]);
        let cmd =
          Filename.quote_command exe
            [ "fleet"; img; "--scenario"; "o_oldwp0"; "--network"; "ethernet10"; "--jobs"; "1" ]
          ^ " > " ^ Filename.quote out ^ " 2>/dev/null"
        in
        Alcotest.(check int) "fleet" 0 (Sys.command cmd);
        Alcotest.(check string) "fleet text output matches golden" (read_file golden)
          (read_file out))

let suite =
  [
    Alcotest.test_case "hand-computed promotion trace under single-host crash" `Quick
      test_promotion_trace_hand_computed;
    Alcotest.test_case "every ladder run feeds the resilience metrics" `Quick
      test_pool_feeds_ladder_metrics;
    Alcotest.test_case "max_probe_rounds below one rejected" `Quick
      test_max_probe_rounds_rejected;
    QCheck_alcotest.to_alcotest ~long:false qcheck_hash_shard_stable;
    QCheck_alcotest.to_alcotest ~long:false qcheck_range_shard_semantics;
    QCheck_alcotest.to_alcotest ~long:false qcheck_replica_ring;
    Alcotest.test_case "pool ladder shards stable across rungs" `Quick
      test_ladder_shards_stable_across_rungs;
    Alcotest.test_case "pool of one is bit-identical to the resilience path" `Slow
      test_pool1_bit_identity;
    Alcotest.test_case "fleet grid deterministic across domains" `Slow
      test_fleetsim_deterministic_across_domains;
    Alcotest.test_case "faultsim, resilience and fleet presets agree" `Slow test_presets_agree;
    Alcotest.test_case "fleet grid over three apps: pool of one, crash service" `Slow
      test_fleet_grid_three_apps;
    Alcotest.test_case "cli fleet golden output" `Slow test_fleet_golden;
  ]
