(** Interface informers (paper §3.2).

    The informer manages static interface metadata: it determines the
    static type of interfaces and walks the parameters of interface
    function calls. Two informers exist:

    - the {b profiling} informer walks every parameter with the
      compiled MIDL descriptors and measures the precise deep-copy
      message sizes (this is where most of the up-to-85% profiling
      overhead comes from);
    - the {b distribution} informer examines parameters only enough to
      identify interface pointers (under 3% overhead).  The RTE decides
      from {!Coign_idl.Midl.method_procs.outputs_ifaces} whether a
      reply can carry one, and only then rewraps it with
      {!Coign_idl.Value.map_iface_handles}. *)

type sizes = { request_bytes : int; reply_bytes : int; remotable : bool }

val measure_call :
  Coign_com.Itype.t -> meth:int ->
  ins:Coign_idl.Value.t list -> outs:Coign_idl.Value.t list -> ret:Coign_idl.Value.t ->
  sizes
(** The profiling informer's measurement. Request direction sizes [In]
    and [In_out] slots of [ins]; reply direction sizes [Out]/[In_out]
    slots of [outs] plus [ret]; each direction includes the DCOM
    per-message overhead. A call that cannot be marshaled (opaque
    parameter, or a value/type mismatch against a non-remotable
    method) yields [{request_bytes = 0; reply_bytes = 0;
    remotable = false}]. *)
