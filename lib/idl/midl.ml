(* Compiled form: a flat array of opcodes interpreted against the value
   tree. Struct/array/pointer bodies are expressed by sub-programs
   referenced by index, which keeps the interpreter non-recursive over
   opcodes within one level and mirrors how format strings embed offsets
   to nested descriptors. *)

type op =
  | O_void
  | O_fixed of int            (* scalar of fixed width *)
  | O_counted_str
  | O_counted_blob
  | O_array of int            (* sub-program index for element *)
  | O_struct of int list      (* sub-program index per field *)
  | O_ptr of int              (* sub-program index for pointee *)
  | O_iface
  | O_opaque of string

type proc = { programs : op array; ty : Idl_type.t }

let compile ty =
  let programs = ref [] in
  let count = ref 0 in
  (* Returns the index of the compiled sub-program for [ty]. *)
  let rec go ty =
    let idx = !count in
    incr count;
    (* Reserve the slot before compiling children so indices are stable. *)
    programs := (idx, O_void) :: !programs;
    let op =
      match ty with
      | Idl_type.Void -> O_void
      | Idl_type.Int32 -> O_fixed 4
      | Idl_type.Int64 -> O_fixed 8
      | Idl_type.Double -> O_fixed 8
      | Idl_type.Bool -> O_fixed 4
      | Idl_type.Str -> O_counted_str
      | Idl_type.Blob -> O_counted_blob
      | Idl_type.Array elt -> O_array (go elt)
      | Idl_type.Struct fields -> O_struct (List.map (fun (_, t) -> go t) fields)
      | Idl_type.Ptr pointee -> O_ptr (go pointee)
      | Idl_type.Iface _ -> O_iface
      | Idl_type.Opaque tag -> O_opaque tag
    in
    programs := (idx, op) :: List.remove_assoc idx !programs;
    idx
  in
  let root = go ty in
  assert (root = 0);
  let arr = Array.make !count O_void in
  List.iter (fun (i, op) -> arr.(i) <- op) !programs;
  { programs = arr; ty }

let opcount p = Array.length p.programs

let rec same_length a b =
  match (a, b) with
  | [], [] -> true
  | _ :: a, _ :: b -> same_length a b
  | _, _ -> false

(* The interpreter the profiling informer runs on every intercepted
   call.  Like {!Marshal_size.value_size_exn} it returns plain ints and
   raises {!Marshal_size.Err}, so the success path is allocation-free:
   no result boxing, no fold closures, no length pre-passes. *)
let rec run_exn p idx v =
  match (p.programs.(idx), v) with
  | O_void, Value.Unit -> 0
  | O_fixed n, (Value.Int _ | Value.Float _ | Value.Bool _) -> n
  | O_counted_str, Value.Str s -> 4 + String.length s
  | O_counted_blob, Value.Blob n when n >= 0 -> 4 + n
  | O_array elt, Value.Arr vs -> 4 + run_array p elt vs 0
  | O_struct fields, Value.Struct fvs when same_length fields fvs ->
      run_struct p fields fvs 0
  | O_ptr _, Value.Null -> 4
  | O_ptr pointee, Value.Ref inner -> 4 + run_exn p pointee inner
  | O_iface, Value.Iface_ref _ -> Marshal_size.objref_size
  | O_iface, Value.Null -> 4
  | O_opaque tag, Value.Opaque_handle _ ->
      raise (Marshal_size.Err (Marshal_size.Not_remotable tag))
  | _, got ->
      raise (Marshal_size.Err (Marshal_size.Type_mismatch { expected = p.ty; got }))

and run_array p elt vs acc =
  match vs with
  | [] -> acc
  | v :: tl -> run_array p elt tl (acc + run_exn p elt v)

and run_struct p fields fvs acc =
  match (fields, fvs) with
  | [], [] -> acc
  | fidx :: fields', (_, fv) :: fvs' ->
      run_struct p fields' fvs' (acc + run_exn p fidx fv)
  | _, _ -> assert false (* guarded by [same_length] *)

let size_with_exn p v = run_exn p 0 v

let size_with p v =
  match run_exn p 0 v with
  | n -> Ok n
  | exception Marshal_size.Err e -> Error e

(* Whether a type can carry interface pointers at all, decided once per
   parameter: the distribution informer skips a parameter that cannot. *)
type iface_proc = { trivial : bool }

let compile_iface_walk ty = { trivial = not (Idl_type.contains_iface ty) }
let iface_walk_trivial p = p.trivial

type method_procs = {
  request_procs : (Idl_type.direction * proc) list;
  ret_proc : proc;
  remotable : bool;
  outputs_ifaces : bool;
}

let compile_method (msig : Idl_type.method_sig) =
  let iface_procs = List.map (fun p -> compile_iface_walk p.Idl_type.pty) msig.params in
  let ret_iface_proc = compile_iface_walk msig.ret in
  {
    request_procs = List.map (fun p -> (p.Idl_type.pdir, compile p.pty)) msig.params;
    ret_proc = compile msig.ret;
    remotable = Idl_type.method_remotable msig;
    outputs_ifaces =
      (not (iface_walk_trivial ret_iface_proc))
      || List.exists2
           (fun p iproc ->
             match p.Idl_type.pdir with
             | Idl_type.In -> false
             | Idl_type.Out | Idl_type.In_out -> not (iface_walk_trivial iproc))
           msig.params iface_procs;
  }

let rec call_size_exn req rep ps vs =
  match (ps, vs) with
  | [], [] -> (req, rep)
  | (dir, proc) :: ps', v :: vs' -> (
      let s = run_exn proc 0 v in
      match dir with
      | Idl_type.In -> call_size_exn (req + s) rep ps' vs'
      | Idl_type.Out -> call_size_exn req (rep + s) ps' vs'
      | Idl_type.In_out -> call_size_exn (req + s) (rep + s) ps' vs')
  | _, _ -> assert false (* guarded by [same_length] *)

let method_call_size procs ~args ~result =
  if not (same_length args procs.request_procs) then
    Error
      (Marshal_size.Type_mismatch { expected = Idl_type.Void; got = Value.Arr args })
  else
    match
      let req, rep = call_size_exn 0 0 procs.request_procs args in
      let ret = run_exn procs.ret_proc 0 result in
      {
        Marshal_size.request = Marshal_size.scalar_overhead + req;
        reply = Marshal_size.scalar_overhead + rep + ret;
      }
    with
    | cs -> Ok cs
    | exception Marshal_size.Err e -> Error e
