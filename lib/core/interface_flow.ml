open Coign_idl
open Coign_image

module SS = Set.Make (String)

let main_class = Coign_com.Runtime.main_class_name

(* Classes are interned to ids in name order, so scanning the adjacency
   matrix row by row yields pairs sorted by (name, name). *)
type t = {
  classes : (string * int) list;  (* the image's class table, with ids *)
  names : string array;
  main : int;
  refs : Bytes.t;  (* n*n; [a*n + b] set: code in a can hold an interface handle on b *)
  succs : int list array;  (* out-lists of [refs] *)
  exports_nr : bool array;  (* the class exports a non-remotable interface *)
  non_remotable : SS.t;  (* interface names with a non-remotable method *)
}

let rec iface_names acc = function
  | Idl_type.Iface n -> SS.add n acc
  | Idl_type.Void | Idl_type.Int32 | Idl_type.Int64 | Idl_type.Double
  | Idl_type.Bool | Idl_type.Str | Idl_type.Blob | Idl_type.Opaque _ ->
      acc
  | Idl_type.Array u | Idl_type.Ptr u -> iface_names acc u
  | Idl_type.Struct fields ->
      List.fold_left (fun acc (_, u) -> iface_names acc u) acc fields

(* Interfaces a method can hand back to the caller (return value and
   [Out]/[In_out] parameters) and interfaces the caller can hand in
   ([In]/[In_out] parameters). *)
let method_yields (m : Idl_type.method_sig) =
  List.fold_left
    (fun acc (p : Idl_type.param) ->
      match p.Idl_type.pdir with
      | Idl_type.Out | Idl_type.In_out -> iface_names acc p.Idl_type.pty
      | Idl_type.In -> acc)
    (iface_names SS.empty m.Idl_type.ret)
    m.Idl_type.params

let method_accepts (m : Idl_type.method_sig) =
  List.fold_left
    (fun acc (p : Idl_type.param) ->
      match p.Idl_type.pdir with
      | Idl_type.In | Idl_type.In_out -> iface_names acc p.Idl_type.pty
      | Idl_type.Out -> acc)
    SS.empty m.Idl_type.params

let method_ifaces m = SS.elements (SS.union (method_yields m) (method_accepts m))

let iface_remotable (i : Image_meta.iface) =
  List.for_all Idl_type.method_remotable i.Image_meta.if_methods

let analyze (meta : Image_meta.t) =
  let classes = meta.Image_meta.classes in
  let names =
    main_class :: meta.Image_meta.roots
    @ List.concat_map
        (fun (c : Image_meta.cls) -> c.Image_meta.cl_name :: c.Image_meta.cl_creates)
        classes
    |> List.sort_uniq String.compare |> Array.of_list
  in
  let n = Array.length names in
  let id =
    let h = Hashtbl.create (2 * n) in
    Array.iteri (fun i s -> Hashtbl.replace h s i) names;
    Hashtbl.find h
  in
  (* What each class implements; a repeated class name takes its last
     entry, a repeated interface name its last declaration. *)
  let provides = Array.make n [] in
  List.iter
    (fun (c : Image_meta.cls) ->
      provides.(id c.Image_meta.cl_name) <- c.Image_meta.cl_provides)
    classes;
  let sigs = Hashtbl.create 32 in
  List.iter
    (fun (i : Image_meta.iface) ->
      let union f =
        List.fold_left (fun acc m -> SS.union acc (f m)) SS.empty i.Image_meta.if_methods
      in
      Hashtbl.replace sigs i.Image_meta.if_name (union method_yields, union method_accepts))
    meta.Image_meta.ifaces;
  (* Only interfaces some class implements can ever match, so only they
     are interned: the columns of the [impl] bit-matrix. *)
  let iid = Hashtbl.create 32 in
  Array.iter
    (List.iter (fun j ->
         if not (Hashtbl.mem iid j) then Hashtbl.add iid j (Hashtbl.length iid)))
    provides;
  let m = Hashtbl.length iid in
  let impl = Bytes.make (n * m) '\000' in
  Array.iteri
    (fun c js -> List.iter (fun j -> Bytes.set impl ((c * m) + Hashtbl.find iid j) '\001') js)
    provides;
  (* Per class: implemented interface ids its own interfaces can yield
     to a caller, and accept from one. *)
  let yields, accepts =
    let ids pick c =
      List.fold_left
        (fun acc i ->
          match Hashtbl.find_opt sigs i with
          | Some s -> SS.union acc (pick s)
          | None -> acc)
        SS.empty provides.(c)
      |> SS.elements |> List.filter_map (Hashtbl.find_opt iid)
    in
    (Array.init n (ids fst), Array.init n (ids snd))
  in
  let matches js c = List.exists (fun j -> Bytes.get impl ((c * m) + j) <> '\000') js in
  let refs = Bytes.make (n * n) '\000' in
  let succs = Array.make n [] and preds = Array.make n [] in
  let queue = Queue.create () in
  let add a b =
    let k = (a * n) + b in
    if Bytes.get refs k = '\000' then begin
      Bytes.set refs k '\001';
      succs.(a) <- b :: succs.(a);
      preds.(b) <- a :: preds.(b);
      Queue.add k queue
    end
  in
  (* Seed: instantiating a class grants a handle on it. The main
     program instantiates the image roots. *)
  let main = id main_class in
  List.iter (fun r -> add main (id r)) meta.Image_meta.roots;
  List.iter
    (fun (c : Image_meta.cls) ->
      let a = id c.Image_meta.cl_name in
      List.iter
        (fun child -> if child <> c.Image_meta.cl_name then add a (id child))
        c.Image_meta.cl_creates)
    classes;
  (* Holding any interface of b grants all of impl(b) — query_interface
     honours every such request — so flow is per class pair. With
     providers(x, j) = {x if x implements j} ∪ {c | refs(x,c), c implements j}:
       R1: refs(a,b) ∧ j ∈ yields(b)  ⇒ refs(a, providers(b, j) \ {a})
       R2: refs(a,b) ∧ j ∈ accepts(b) ⇒ refs(b, providers(a, j) \ {b})
     Semi-naive worklist: each edge is queued once, when first added,
     and popping it fires every rule instance it is a premise of, the
     other premise taken from the edges already known. The rules are
     monotone, so this reaches the same least fixpoint as iterating them
     over the whole relation. *)
  while not (Queue.is_empty queue) do
    let k = Queue.pop queue in
    let a = k / n and b = k mod n in
    (* R1: b hands a whatever it holds that b's interfaces yield. *)
    List.iter (fun c -> if c <> a && matches yields.(b) c then add a c) succs.(b);
    (* R2: a hands b itself, or anything it holds, that b accepts. *)
    if a <> b && matches accepts.(b) a then add b a;
    List.iter
      (fun c ->
        if c <> b then begin
          if matches accepts.(b) c then add b c;
          (* R2 re-fired: providers(a, _) gained b, so a can hand b to
             every c it holds. *)
          if matches accepts.(c) b then add c b
        end)
      succs.(a);
    (* R1 re-fired: providers(a, _) gained b, so every holder of a can
       obtain b. *)
    if matches yields.(a) b then List.iter (fun x -> if x <> b then add x b) preds.(a)
  done;
  let non_remotable =
    List.fold_left
      (fun acc (i : Image_meta.iface) ->
        if iface_remotable i then acc else SS.add i.Image_meta.if_name acc)
      SS.empty meta.Image_meta.ifaces
  in
  (* A repeated class name resolves to its first entry, as in
     [Image_meta.cls]. *)
  let exports_nr = Array.make n false in
  List.iter
    (fun (c : Image_meta.cls) ->
      exports_nr.(id c.Image_meta.cl_name) <-
        List.exists (fun i -> SS.mem i non_remotable) c.Image_meta.cl_provides)
    (List.rev classes);
  let classes =
    List.map (fun (c : Image_meta.cls) -> (c.Image_meta.cl_name, id c.Image_meta.cl_name)) classes
  in
  { classes; names; main; refs; succs; exports_nr; non_remotable }

let n t = Array.length t.names

let has t a b = Bytes.get t.refs ((a * n t) + b) <> '\000'

(* Pairs (a, b) with [keep a b] in (name, name) order. *)
let pairs_where t keep =
  let acc = ref [] in
  for a = n t - 1 downto 0 do
    for b = n t - 1 downto 0 do
      if keep a b then acc := (t.names.(a), t.names.(b)) :: !acc
    done
  done;
  !acc

let references t = pairs_where t (has t)

let non_remotable_ifaces t = SS.elements t.non_remotable

(* a and b must share a machine when either can call a non-remotable
   method of the other, i.e. either references the other and the
   referenced side exports a non-remotable interface. *)
let non_remotable_pairs t =
  let must a b = a <> t.main && b <> t.main && has t a b && t.exports_nr.(b) in
  pairs_where t (fun a b -> a <= b && (must a b || must b a))

let client_pins t =
  List.filter_map
    (fun b -> if t.exports_nr.(b) then Some t.names.(b) else None)
    (List.sort compare t.succs.(t.main))

let unreachable_classes t =
  let reached = Array.make (n t) false in
  let rec walk x =
    if not reached.(x) then begin
      reached.(x) <- true;
      List.iter walk t.succs.(x)
    end
  in
  walk t.main;
  List.filter_map (fun (name, c) -> if reached.(c) then None else Some name) t.classes

let constraints_of t =
  let c =
    List.fold_left
      (fun c (a, b) -> Constraints.colocate_classes c a b)
      Constraints.empty (non_remotable_pairs t)
  in
  List.fold_left
    (fun c cname -> Constraints.pin_class c ~cname Constraints.Client)
    c (client_pins t)
