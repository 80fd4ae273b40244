open Coign_util
open Coign_netsim
open Coign_core

type engine = Retry | Resilience | Pool of int
type scope = Global | Host0

type fault = {
  f_drop_rate : float;
  f_start_us : float;
  f_length_us : float;
  f_scope : scope;
}

type outcome = { o_stats : Adps.exec_stats; o_pool : Rte.fleet_stats option }

type t = {
  g_network : Network.t;
  g_seed : int64;
  g_replicas : int;
  g_ladder : Fallback.t option;
  g_clean : Adps.exec_stats;
  g_engines : engine list;
  g_faults : fault list;
  g_cells : ((engine * fault) * outcome) list;
}

let no_fault = { f_drop_rate = 0.; f_start_us = 0.; f_length_us = 0.; f_scope = Global }

(* What a pair actually executes: the network-wide fault spec and the
   per-host overlays. A crash is a host event — host 0's link
   partitions while the rest of the pool stays reachable — but a
   one-host engine has no other host, so its crash is the network-wide
   window. That is what lets a [Pool 1] crash cell double as the
   bit-identity check against [Resilience]. *)
let execution engine f =
  let spec ~window =
    {
      Fault.zero with
      Fault.fs_drop_rate = f.f_drop_rate;
      fs_partitions_us =
        (if window then [ (f.f_start_us, f.f_start_us +. f.f_length_us) ] else []);
    }
  in
  let window = f.f_length_us > 0. in
  let global ~window =
    if f.f_drop_rate = 0. && not window then None else Some (spec ~window)
  in
  match (engine, f.f_scope) with
  | Pool k, Host0 when k > 1 && window ->
      (engine, global ~window:false, [ (0, spec ~window:true) ])
  | _ -> (engine, global ~window, [])

let run ?pool ?profiler ?(seed = 0x5EEDL) ?(jitter = 0.) ?health ?(replicas = 2) ~engines
    ~faults ~image ~registry ~network scenario =
  (* One analysis session prices the primary cut, the base ladder and
     every pool ladder, all off the exact network model (deterministic
     — no profiling noise in the cuts). Ladders and configs are
     immutable; each execute installs its own breaker and shard state,
     so cells evaluate independently across domains. *)
  let ladders = List.exists (fun e -> e <> Retry) engines in
  let image, base, pools =
    if not ladders then (image, None, [])
    else begin
      let net = Net_profiler.exact network in
      let session = Adps.analysis_session ?profiler image in
      let image, primary = Adps.analyze_with ?profiler ~session ~image ~net () in
      let base = Fallback.compute ?profiler ~primary session ~net () in
      let sizes =
        List.sort_uniq compare (List.filter_map (function Pool k -> Some k | _ -> None) engines)
      in
      let pool_ladder k = (k, Fallback.pool_ladder ~replicas ~hosts:k session ~net base) in
      (image, Some base, List.map pool_ladder sizes)
    end
  in
  let timed f =
    match profiler with
    | None -> f ()
    | Some p -> Coign_obs.Profiler.time p "grid_cell" f
  in
  let resilience = Option.map (Rte.resilience ?health) base in
  let eval (engine, faults, host_faults) =
    let fleet =
      match engine with
      | Retry -> None
      | Resilience -> resilience
      | Pool k -> Some (Rte.fleet ?health ~host_faults (List.assoc k pools))
    in
    timed (fun () ->
        match fleet with
        | None ->
            {
              o_stats = Adps.execute ~image ~registry ~network ~jitter ~seed ?faults scenario;
              o_pool = None;
            }
        | Some fleet ->
            let stats, fs =
              Adps.execute_fleet ~image ~registry ~network ~jitter ~seed ?faults ~fleet scenario
            in
            { o_stats = stats; o_pool = Some fs })
  in
  let clean = execution Retry no_fault in
  let runs =
    Array.of_list
      (List.sort_uniq compare
         (clean
         :: List.concat_map (fun e -> List.map (execution e) faults) engines))
  in
  let outcomes =
    match pool with
    | None -> Array.map eval runs
    | Some pool -> Parallel.map pool ~f:eval runs
  in
  let table = Hashtbl.create (Array.length runs) in
  Array.iteri (fun i run -> Hashtbl.replace table run outcomes.(i)) runs;
  let result run = Hashtbl.find table run in
  {
    g_network = network;
    g_seed = seed;
    g_replicas = replicas;
    g_ladder = base;
    g_clean = (result clean).o_stats;
    g_engines = engines;
    g_faults = faults;
    g_cells =
      List.concat_map
        (fun e -> List.map (fun f -> ((e, f), result (execution e f))) faults)
        engines;
  }

let outcome g engine fault =
  snd (List.find (fun (pair, _) -> compare pair (engine, fault) = 0) g.g_cells)

let ratio n d = if d = 0 then 1. else Float.min 1. (float_of_int n /. float_of_int d)

(* Fraction of the scenario's intercepted calls that actually executed
   before the run completed or was cut short — the availability a user
   of the distributed application experiences under the fault. *)
let availability g (s : Adps.exec_stats) =
  ratio s.Adps.es_intercepted g.g_clean.Adps.es_intercepted

(* Fraction of the clean run's remote calls that stayed remote: a
   ladder that retreats to all-client stays available but stops
   serving. *)
let served g (s : Adps.exec_stats) =
  ratio s.Adps.es_remote_calls g.g_clean.Adps.es_remote_calls

(* --- Presets ----------------------------------------------------------- *)

let drop_partition_faults ~drop_rates ~partitions_us ~start_us =
  List.concat_map
    (fun d ->
      List.map
        (fun p -> { f_drop_rate = d; f_start_us = start_us; f_length_us = p; f_scope = Global })
        partitions_us)
    drop_rates

let stats g engine f = (outcome g engine f).o_stats
let done_ (s : Adps.exec_stats) = if s.Adps.es_completed then "yes" else "cut"
let net_name g = Jsonu.escape g.g_network.Network.net_name
let json_array cells = Printf.sprintf "[\n%s\n]\n" (String.concat ",\n" cells)

let pp_faultsim ppf g =
  Format.fprintf ppf "fault grid on %s (seed 0x%LX)@," g.g_network.Network.net_name g.g_seed;
  Format.fprintf ppf "%8s  %12s  %6s  %7s  %6s  %9s  %7s  %9s  %9s  %4s@," "drop" "partition ms"
    "calls" "retries" "drops" "fallbacks" "unreach" "comm (s)" "fault (s)" "done";
  Format.fprintf ppf "%s@," (String.make 96 '-');
  List.iter
    (fun f ->
      let s = stats g Retry f in
      Format.fprintf ppf "%8.3f  %12.1f  %6d  %7d  %6d  %9d  %7d  %9.3f  %9.3f  %4s@,"
        f.f_drop_rate (f.f_length_us /. 1e3) s.Adps.es_remote_calls s.Adps.es_retries
        s.Adps.es_drops s.Adps.es_fallbacks s.Adps.es_unreachable
        (s.Adps.es_comm_us /. 1e6) (s.Adps.es_fault_us /. 1e6) (done_ s))
    g.g_faults

let faultsim_json g =
  json_array
    (List.map
       (fun f ->
         let s = stats g Retry f in
         Printf.sprintf
           "{\"network\": \"%s\", \"seed\": \"0x%LX\", \"drop_rate\": %.17g, \"partition_us\": \
            %.17g, \"remote_calls\": %d, \"retries\": %d, \"drops\": %d, \"spikes\": %d, \
            \"fallbacks\": %d, \"unreachable\": %d, \"comm_us\": %.17g, \"fault_us\": %.17g, \
            \"completed\": %b}"
           (net_name g) g.g_seed f.f_drop_rate f.f_length_us s.Adps.es_remote_calls
           s.Adps.es_retries s.Adps.es_drops s.Adps.es_spikes s.Adps.es_fallbacks
           s.Adps.es_unreachable s.Adps.es_comm_us s.Adps.es_fault_us s.Adps.es_completed)
       g.g_faults)

let pp_resilience ppf g =
  Format.fprintf ppf "resilience grid on %s (seed 0x%LX, %d clean calls)@,"
    g.g_network.Network.net_name g.g_seed g.g_clean.Adps.es_intercepted;
  Option.iter (Format.fprintf ppf "%a@," Fallback.pp) g.g_ladder;
  Format.fprintf ppf "%8s  %12s  %7s  %7s  %10s  %5s  %6s  %8s  %7s  %4s  %9s@," "drop"
    "partition ms" "avail-b" "avail-r" "dcomm (s)" "opens" "fovers" "stranded" "rescued"
    "rung" "done(b/r)";
  Format.fprintf ppf "%s@," (String.make 104 '-');
  List.iter
    (fun f ->
      let b = stats g Retry f and s = stats g Resilience f in
      Format.fprintf ppf
        "%8.3f  %12.1f  %7.3f  %7.3f  %10.3f  %5d  %6d  %8d  %7d  %4d  %5s/%s@,"
        f.f_drop_rate (f.f_length_us /. 1e3) (availability g b) (availability g s)
        ((s.Adps.es_comm_us -. b.Adps.es_comm_us) /. 1e6)
        s.Adps.es_breaker_opens s.Adps.es_failovers s.Adps.es_stranded_calls
        s.Adps.es_rescued_calls s.Adps.es_final_rung (done_ b) (done_ s))
    g.g_faults

let resilience_json g =
  let side (s : Adps.exec_stats) =
    Printf.sprintf
      "{\"availability\": %.17g, \"intercepted\": %d, \"remote_calls\": %d, \"retries\": %d, \
       \"drops\": %d, \"unreachable\": %d, \"comm_us\": %.17g, \"fault_us\": %.17g, \
       \"breaker_opens\": %d, \"breaker_closes\": %d, \"failovers\": %d, \"failbacks\": %d, \
       \"migrations\": %d, \"stranded_calls\": %d, \"rescued_calls\": %d, \"final_rung\": %d, \
       \"completed\": %b}"
      (availability g s) s.Adps.es_intercepted s.Adps.es_remote_calls s.Adps.es_retries
      s.Adps.es_drops s.Adps.es_unreachable s.Adps.es_comm_us s.Adps.es_fault_us
      s.Adps.es_breaker_opens s.Adps.es_breaker_closes s.Adps.es_failovers
      s.Adps.es_failbacks s.Adps.es_migrations s.Adps.es_stranded_calls
      s.Adps.es_rescued_calls s.Adps.es_final_rung s.Adps.es_completed
  in
  json_array
    (List.map
       (fun f ->
         Printf.sprintf
           "{\"network\": \"%s\", \"seed\": \"0x%LX\", \"clean_calls\": %d, \"drop_rate\": \
            %.17g, \"partition_us\": %.17g, \"baseline\": %s, \"resilient\": %s}"
           (net_name g) g.g_seed g.g_clean.Adps.es_intercepted f.f_drop_rate f.f_length_us
           (side (stats g Retry f))
           (side (stats g Resilience f)))
       g.g_faults)

let fleet_engines ~pools = Resilience :: List.init pools (fun i -> Pool (i + 1))

let fleet_faults ~start_us ~length_us =
  let window scope =
    { f_drop_rate = 0.; f_start_us = start_us; f_length_us = length_us; f_scope = scope }
  in
  [ no_fault; window Host0; window Global ]

let regime_name f =
  if f.f_length_us = 0. then "clean" else if f.f_scope = Host0 then "crash" else "partition"

(* The fleet rows, pool size outer and regime inner: the pool's outcome
   and pool counters beside the resilience baseline, and for a pool of
   one whether the two runs agree field for field. *)
let fleet_rows g =
  List.concat_map
    (function
      | Pool k ->
          List.map
            (fun f ->
              let b = stats g Resilience f and o = outcome g (Pool k) f in
              let ident = if k = 1 then Some (o.o_stats = b) else None in
              (k, f, b, o.o_stats, Option.get o.o_pool, ident))
            g.g_faults
      | Retry | Resilience -> [])
    g.g_engines

let pp_fleet ppf g =
  Format.fprintf ppf
    "fleet grid on %s (seed 0x%LX, %d clean calls, %d clean remote, %d replica(s))@,"
    g.g_network.Network.net_name g.g_seed g.g_clean.Adps.es_intercepted
    g.g_clean.Adps.es_remote_calls g.g_replicas;
  Format.fprintf ppf "%4s  %9s  %7s  %7s  %7s  %7s  %6s  %6s  %6s  %7s  %5s  %6s  %5s@,"
    "pool" "regime" "avail-b" "avail-f" "serve-b" "serve-f" "opens" "promos" "splits"
    "resizes" "hosts" "rung" "ident";
  Format.fprintf ppf "%s@," (String.make 108 '-');
  List.iter
    (fun (k, f, b, s, fs, ident) ->
      Format.fprintf ppf
        "%4d  %9s  %7.3f  %7.3f  %7.3f  %7.3f  %6d  %6d  %6d  %7d  %5d  %6d  %5s@," k
        (regime_name f) (availability g b) (availability g s) (served g b) (served g s)
        fs.Rte.fs_breaker_opens fs.Rte.fs_promotions fs.Rte.fs_splits fs.Rte.fs_resizes
        fs.Rte.fs_final_hosts fs.Rte.fs_final_rung
        (match ident with None -> "-" | Some true -> "yes" | Some false -> "NO"))
    (fleet_rows g)

let fleet_json g =
  let side (s : Adps.exec_stats) =
    Printf.sprintf
      "{\"availability\": %.17g, \"served\": %.17g, \"intercepted\": %d, \"remote_calls\": %d, \
       \"retries\": %d, \"drops\": %d, \"unreachable\": %d, \"comm_us\": %.17g, \
       \"fault_us\": %.17g, \"breaker_opens\": %d, \"failovers\": %d, \"failbacks\": %d, \
       \"migrations\": %d, \"stranded_calls\": %d, \"rescued_calls\": %d, \
       \"final_rung\": %d, \"completed\": %b}"
      (availability g s) (served g s) s.Adps.es_intercepted s.Adps.es_remote_calls
      s.Adps.es_retries s.Adps.es_drops s.Adps.es_unreachable s.Adps.es_comm_us
      s.Adps.es_fault_us s.Adps.es_breaker_opens s.Adps.es_failovers s.Adps.es_failbacks
      s.Adps.es_migrations s.Adps.es_stranded_calls s.Adps.es_rescued_calls
      s.Adps.es_final_rung s.Adps.es_completed
  in
  json_array
    (List.map
       (fun (k, f, b, s, (fs : Rte.fleet_stats), ident) ->
         Printf.sprintf
           "{\"network\": \"%s\", \"seed\": \"0x%LX\", \"clean_calls\": %d, \"clean_remote\": \
            %d, \"pool\": %d, \"regime\": \"%s\", \"identical\": %s, \"baseline\": %s, \
            \"fleet\": %s, \"pool_stats\": {\"promotions\": %d, \"splits\": %d, \"resizes\": \
            %d, \"inter_host_calls\": %d, \"final_hosts\": %d, \"final_shards\": %d}}"
           (net_name g) g.g_seed g.g_clean.Adps.es_intercepted g.g_clean.Adps.es_remote_calls k
           (regime_name f)
           (match ident with None -> "null" | Some b -> string_of_bool b)
           (side b) (side s) fs.Rte.fs_promotions fs.Rte.fs_splits fs.Rte.fs_resizes
           fs.Rte.fs_inter_host_calls fs.Rte.fs_final_hosts fs.Rte.fs_final_shards)
       (fleet_rows g))
