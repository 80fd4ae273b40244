open Coign_idl

type t = {
  id : int;
  iid : Guid.t;
  iname : string;
  methods : Idl_type.method_sig array;
  procs : Midl.method_procs array;  (* compiled once, per method *)
  qualified : string array;  (* "Iface.meth", per method *)
  remotable : bool;
}

let next_id = Atomic.make 0

let declare iname methods =
  let methods = Array.of_list methods in
  {
    id = Atomic.fetch_and_add next_id 1;
    iid = Guid.of_name ("IID_" ^ iname);
    iname;
    methods;
    procs = Array.map Midl.compile_method methods;
    qualified = Array.map (fun m -> iname ^ "." ^ m.Idl_type.mname) methods;
    remotable = Array.for_all Idl_type.method_remotable methods;
  }

let id t = t.id
let iid t = t.iid
let name t = t.iname
let method_count t = Array.length t.methods

let method_sig t i =
  if i < 0 || i >= Array.length t.methods then
    invalid_arg (Printf.sprintf "Itype.method_sig: %s has no method %d" t.iname i);
  t.methods.(i)

let method_name t i = (method_sig t i).Idl_type.mname

let qualified_name t i =
  if i < 0 || i >= Array.length t.qualified then
    invalid_arg (Printf.sprintf "Itype.qualified_name: %s has no method %d" t.iname i);
  t.qualified.(i)

let method_index t mname =
  let rec find i =
    if i >= Array.length t.methods then raise Not_found
    else if String.equal t.methods.(i).Idl_type.mname mname then i
    else find (i + 1)
  in
  find 0

let procs t i =
  if i < 0 || i >= Array.length t.procs then
    invalid_arg (Printf.sprintf "Itype.procs: %s has no method %d" t.iname i);
  t.procs.(i)

let remotable t = t.remotable

let equal a b = Guid.equal a.iid b.iid

let pp ppf t =
  Format.fprintf ppf "interface %s%s (%d methods)" t.iname
    (if t.remotable then "" else " [non-remotable]")
    (Array.length t.methods)
