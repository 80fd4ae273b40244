open Coign_idl
open Coign_com

type sizes = { request_bytes : int; reply_bytes : int; remotable : bool }

let non_remotable = { request_bytes = 0; reply_bytes = 0; remotable = false }

(* Lockstep walks over the compiled parameter programs and one value
   list: [ins] and [outs] each carry one slot per parameter (the RTE
   builds them from the same signature), so indexing with [List.nth]
   would be a quadratic re-scan on wide methods. The request walk sizes
   [In] and [In_out] slots of [ins], the reply walk [Out] and [In_out]
   slots of [outs]; accumulating ints, neither allocates, and the
   [_exn] sizing walks keep the success path allocation-free. *)
let rec measure_params ~reply acc ps vs =
  match (ps, vs) with
  | [], _ -> acc
  | (dir, proc) :: ps', v :: vs' ->
      let counted =
        match dir with
        | Idl_type.In_out -> true
        | Idl_type.In -> not reply
        | Idl_type.Out -> reply
      in
      measure_params ~reply (if counted then acc + Midl.size_with_exn proc v else acc) ps' vs'
  | _, [] -> invalid_arg "Informer.measure_call: parameter arity mismatch"

let measure_call itype ~meth ~ins ~outs ~ret =
  let procs = Itype.procs itype meth in
  if not procs.Midl.remotable then non_remotable
  else
    match
      let req = measure_params ~reply:false 0 procs.Midl.request_procs ins in
      let rep = measure_params ~reply:true 0 procs.Midl.request_procs outs in
      {
        request_bytes = Marshal_size.scalar_overhead + req;
        reply_bytes =
          Marshal_size.scalar_overhead + rep + Midl.size_with_exn procs.Midl.ret_proc ret;
        remotable = true;
      }
    with
    | sizes -> sizes
    | exception Marshal_size.Err _ -> non_remotable
