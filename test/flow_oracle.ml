(* Reference implementation of the interface-flow analysis, kept only as
   a test oracle: the straightforward Jacobi iteration over sets of
   class-name pairs that [Interface_flow] once shipped. It re-folds
   every reference each round and recomputes provider sets by scanning
   the whole relation, so it is slow, but each rule appears exactly as
   written in the derivation. [Interface_flow] must agree with it on
   every output. *)

open Coign_idl
open Coign_image
open Coign_core

module SS = Set.Make (String)

module SP = Set.Make (struct
  type t = string * string

  let compare = compare
end)

let main_class = Coign_com.Runtime.main_class_name

type t = { meta : Image_meta.t; refs : SP.t; non_remotable : SS.t }

let norm a b = if a <= b then (a, b) else (b, a)

let rec iface_names acc = function
  | Idl_type.Iface n -> SS.add n acc
  | Idl_type.Void | Idl_type.Int32 | Idl_type.Int64 | Idl_type.Double
  | Idl_type.Bool | Idl_type.Str | Idl_type.Blob | Idl_type.Opaque _ ->
      acc
  | Idl_type.Array u | Idl_type.Ptr u -> iface_names acc u
  | Idl_type.Struct fields ->
      List.fold_left (fun acc (_, u) -> iface_names acc u) acc fields

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

let iface_remotable (i : Image_meta.iface) =
  List.for_all Idl_type.method_remotable i.Image_meta.if_methods

let analyze (meta : Image_meta.t) =
  let impl =
    List.fold_left
      (fun m (c : Image_meta.cls) ->
        (c.Image_meta.cl_name, SS.of_list c.Image_meta.cl_provides) :: m)
      [] meta.Image_meta.classes
  in
  let impl_of name = Option.value ~default:SS.empty (List.assoc_opt name impl) in
  let yields_of, accepts_of =
    let tbl f =
      let h = Hashtbl.create 32 in
      List.iter
        (fun (i : Image_meta.iface) ->
          Hashtbl.replace h i.Image_meta.if_name
            (List.fold_left
               (fun acc m -> SS.union acc (f m))
               SS.empty i.Image_meta.if_methods))
        meta.Image_meta.ifaces;
      fun name -> Option.value ~default:SS.empty (Hashtbl.find_opt h name)
    in
    (tbl method_yields, tbl method_accepts)
  in
  let seed =
    List.fold_left
      (fun refs (c : Image_meta.cls) ->
        List.fold_left
          (fun refs child ->
            if child = c.Image_meta.cl_name then refs
            else SP.add (c.Image_meta.cl_name, child) refs)
          refs c.Image_meta.cl_creates)
      (List.fold_left
         (fun refs root -> SP.add (main_class, root) refs)
         SP.empty meta.Image_meta.roots)
      meta.Image_meta.classes
  in
  let providers refs x j =
    let own = if SS.mem j (impl_of x) then SS.singleton x else SS.empty in
    SP.fold
      (fun (a, b) acc -> if a = x && SS.mem j (impl_of b) then SS.add b acc else acc)
      refs own
  in
  (*   refs(a,b) ∧ j ∈ yields(impl b)  ⇒  refs(a, providers b j)
       refs(a,b) ∧ j ∈ accepts(impl b) ⇒  refs(b, providers a j)   *)
  let step refs =
    SP.fold
      (fun (a, b) acc ->
        SS.fold
          (fun i acc ->
            let acc =
              SS.fold
                (fun j acc ->
                  SS.fold
                    (fun c acc -> if c = a then acc else SP.add (a, c) acc)
                    (providers refs b j) acc)
                (yields_of i) acc
            in
            SS.fold
              (fun j acc ->
                SS.fold
                  (fun c acc -> if c = b then acc else SP.add (b, c) acc)
                  (providers refs a j) acc)
              (accepts_of i) acc)
          (impl_of b) acc)
      refs refs
  in
  let rec fix refs =
    let refs' = step refs in
    if SP.equal refs refs' then refs else fix refs'
  in
  let refs = fix seed in
  let non_remotable =
    List.fold_left
      (fun acc (i : Image_meta.iface) ->
        if iface_remotable i then acc else SS.add i.Image_meta.if_name acc)
      SS.empty meta.Image_meta.ifaces
  in
  { meta; refs; non_remotable }

let references t = SP.elements t.refs

let non_remotable_ifaces t = SS.elements t.non_remotable

let class_non_remotable t name =
  not
    (SS.is_empty
       (SS.inter
          (SS.of_list
             (match Image_meta.cls t.meta name with
             | Some c -> c.Image_meta.cl_provides
             | None -> []))
          t.non_remotable))

let non_remotable_pairs t =
  SP.fold
    (fun (a, b) acc ->
      if a = main_class || b = main_class then acc
      else if class_non_remotable t b then SP.add (norm a b) acc
      else acc)
    t.refs SP.empty
  |> SP.elements

let client_pins t =
  SP.fold
    (fun (a, b) acc ->
      if a = main_class && class_non_remotable t b then SS.add b acc else acc)
    t.refs SS.empty
  |> SS.elements

let unreachable_classes t =
  let succs x =
    SP.fold (fun (a, b) acc -> if a = x then SS.add b acc else acc) t.refs SS.empty
  in
  let rec walk seen frontier =
    if SS.is_empty frontier then seen
    else
      let next = SS.fold (fun x acc -> SS.union acc (succs x)) frontier SS.empty in
      let fresh = SS.diff next seen in
      walk (SS.union seen fresh) fresh
  in
  let reached = walk (SS.singleton main_class) (SS.singleton main_class) in
  List.filter_map
    (fun (c : Image_meta.cls) ->
      if SS.mem c.Image_meta.cl_name reached then None else Some c.Image_meta.cl_name)
    t.meta.Image_meta.classes

let constraints_of t =
  let c =
    List.fold_left
      (fun c (a, b) -> Constraints.colocate_classes c a b)
      Constraints.empty (non_remotable_pairs t)
  in
  List.fold_left
    (fun c cname -> Constraints.pin_class c ~cname Constraints.Client)
    c (client_pins t)
