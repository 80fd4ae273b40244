type t = { logger_name : string; log : Event.t -> unit }

let null = { logger_name = "null"; log = (fun _ -> ()) }

let profiling ~icc ~inst_comm =
  let log = function
    | Event.Interface_call
        { caller; caller_classification; callee; callee_classification; iface; meth = _;
          remotable; request_bytes; reply_bytes } ->
        Icc.record icc ~src:caller_classification ~dst:callee_classification ~iface
          ~remotable ~request:request_bytes ~reply:reply_bytes;
        Inst_comm.record_call inst_comm ~caller ~callee ~request:request_bytes
          ~reply:reply_bytes
    | Event.Component_instantiated _ | Event.Component_destroyed _
    | Event.Interface_instantiated _ | Event.Interface_destroyed _
    | Event.Call_retried _ | Event.Instantiation_degraded _ | Event.Breaker_opened _
    | Event.Breaker_closed _ | Event.Failover _ | Event.Failback _
    | Event.Instance_migrated _ | Event.Drift_detected _ | Event.Repartitioned _
    | Event.Replica_promoted _ | Event.Shard_split _ | Event.Pool_resized _ ->
        ()
  in
  { logger_name = "profiling"; log }

let event_recorder () =
  let events = ref [] in
  ( { logger_name = "event"; log = (fun e -> events := e :: !events) },
    fun () -> List.rev !events )

let counting () =
  let n = ref 0 in
  ({ logger_name = "counting"; log = (fun _ -> incr n) }, fun () -> !n)

let tally () =
  let counts : (string, int ref) Hashtbl.t = Hashtbl.create 8 in
  let log e =
    let k = Event.kind_name e in
    match Hashtbl.find_opt counts k with
    | Some r -> incr r
    | None -> Hashtbl.add counts k (ref 1)
  in
  ( { logger_name = "tally"; log },
    fun () -> Hashtbl.fold (fun k r acc -> (k, !r) :: acc) counts [] |> List.sort compare )

let tee loggers =
  {
    logger_name = "tee(" ^ String.concat "," (List.map (fun l -> l.logger_name) loggers) ^ ")";
    log = (fun e -> List.iter (fun l -> l.log e) loggers);
  }

let to_channel oc =
  {
    logger_name = "channel";
    log =
      (fun e ->
        output_string oc (Event.to_line e);
        output_char oc '\n');
  }
