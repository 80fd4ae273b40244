open Coign_util
module Metrics = Coign_obs.Metrics

type policy =
  | By_classification of Analysis.distribution
  | By_class of (string -> Constraints.location)
  | All_client

type counters = { co_local : Metrics.counter; co_forwarded : Metrics.counter }

type t = {
  mutable policy : policy;
  machines : Dense_map.t; (* instance -> location code, see [code] *)
  mutable local : int;
  mutable forwarded : int;
  obs : counters option;
}

let create ?metrics policy =
  let obs =
    Option.map
      (fun reg ->
        let requests kind =
          Metrics.counter reg
            ~help:"Instantiation requests decided by the factory, by outcome."
            ~labels:[ ("kind", kind) ] "coign_factory_requests_total"
        in
        { co_local = requests "local"; co_forwarded = requests "forwarded" })
      metrics
  in
  { policy; machines = Dense_map.create ~absent:0; local = 0; forwarded = 0; obs }

let decide t ~classification ~cname ~creator_machine =
  let target =
    match t.policy with
    | All_client -> Constraints.Client
    | By_class f -> f cname
    | By_classification d ->
        if classification >= 0 && classification < d.Analysis.node_count then
          Analysis.location_of d classification
        else creator_machine
  in
  if target = creator_machine then begin
    t.local <- t.local + 1;
    match t.obs with None -> () | Some c -> Metrics.inc c.co_local
  end
  else begin
    t.forwarded <- t.forwarded + 1;
    match t.obs with None -> () | Some c -> Metrics.inc c.co_forwarded
  end;
  target

let policy t = t.policy

(* Atomic placement-map switch for the resilience layer: instantiation
   requests decided after this call follow the new policy; already-
   placed instances keep their recorded machine until re-recorded. *)
let set_policy t policy = t.policy <- policy

(* Instance ids are dense, so the placement map is an array of codes;
   0 marks an instance never recorded. *)
let code = function Constraints.Client -> 1 | Constraints.Server -> 2
let location_of_code c = if c = 2 then Constraints.Server else Constraints.Client

let record_instance t ~inst loc =
  if inst < 0 then invalid_arg "Factory.record_instance: negative instance id";
  Dense_map.set t.machines inst (code loc)

let instances t =
  Dense_map.fold (fun inst c acc -> (inst, location_of_code c) :: acc) t.machines []

let machine_of t inst = location_of_code (Dense_map.get t.machines inst)

let instances_on t loc =
  let want = code loc in
  Dense_map.fold (fun inst c acc -> if c = want then inst :: acc else acc) t.machines []

let local_requests t = t.local
let forwarded_requests t = t.forwarded
