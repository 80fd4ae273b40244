open Coign_com
open Coign_core
open Coign_apps

type report = {
  bare_s : float;
  profiling_s : float;
  distributed_s : float;
  app_compute_s : float;
  intercepted_calls : int;
  profiling_us_per_call : float;
  distributed_us_per_call : float;
  profiling_overhead : float;
  distributed_overhead : float;
}

let time_best repeats f =
  let best = ref infinity and result = ref None in
  for _ = 1 to max 1 repeats do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then begin
      best := dt;
      result := Some r
    end
  done;
  (!best, Option.get !result)

let measure ?(repeats = 3) (app : App.t) (sc : App.scenario) =
  let bare () =
    let ctx = Runtime.create_ctx app.App.app_registry in
    sc.App.sc_run ctx;
    Runtime.compute_us ctx
  in
  let profiling () =
    let ctx = Runtime.create_ctx app.App.app_registry in
    let rte = Rte.install_profiling ~classifier:(Classifier.create Classifier.Ifcb) ctx in
    sc.App.sc_run ctx;
    Rte.uninstall rte;
    Rte.intercepted_calls rte
  in
  let distributed () =
    let ctx = Runtime.create_ctx app.App.app_registry in
    let rte =
      Rte.install_distributed ~classifier:(Classifier.create Classifier.Ifcb)
        ~config:
          {
            Rte.dc_factory_policy = Factory.All_client;
            dc_network = Coign_netsim.Network.loopback;
            dc_jitter = 0.;
            dc_seed = 1L;
            dc_faults = None;
            dc_retry = Coign_netsim.Fault.default_retry;
            dc_fleet = None;
            dc_watch = None;
          }
        ctx
    in
    sc.App.sc_run ctx;
    Rte.uninstall rte;
    Rte.intercepted_calls rte
  in
  let bare_s, compute_us = time_best repeats bare in
  let profiling_s, calls = time_best repeats profiling in
  let distributed_s, _ = time_best repeats distributed in
  let app_compute_s = compute_us /. 1e6 in
  let modeled = bare_s +. app_compute_s in
  let per_call total = if calls = 0 then 0. else Float.max 0. (total -. bare_s) /. float_of_int calls *. 1e6 in
  {
    bare_s;
    profiling_s;
    distributed_s;
    app_compute_s;
    intercepted_calls = calls;
    profiling_us_per_call = per_call profiling_s;
    distributed_us_per_call = per_call distributed_s;
    profiling_overhead = (if modeled > 0. then Float.max 0. (profiling_s -. bare_s) /. modeled else 0.);
    distributed_overhead =
      (if modeled > 0. then Float.max 0. (distributed_s -. bare_s) /. modeled else 0.);
  }
