(** MIDL-style compiled marshal descriptors ("format strings").

    The profiling informer "uses format strings and interface marshaling
    code generated by the Microsoft IDL compiler" (paper §3.2). We model
    that with a compilation step from {!Idl_type.t} to a flat opcode
    program that a small interpreter walks alongside the value. The
    compiled walk computes identical sizes to {!Marshal_size} (a tested
    property) but avoids re-traversing the type term. For the
    distribution informer each method records, once, whether its reply
    can carry an interface pointer at all ({!method_procs.outputs_ifaces}),
    so replies that cannot are never walked: the "aggressive
    optimization of static interface metadata" that brings
    distribution-time overhead under 3%. *)

type proc
(** A compiled size-walk program for one IDL type. *)

val compile : Idl_type.t -> proc

val opcount : proc -> int
(** Number of opcodes; useful for metadata-size accounting. *)

val size_with : proc -> Value.t -> (int, Marshal_size.error) result
(** Same result as [Marshal_size.value_size ty v] when [proc] was
    compiled from [ty]. *)

val size_with_exn : proc -> Value.t -> int
(** {!size_with} returning a plain int, raising {!Marshal_size.Err} on
    failure.  Allocation-free on success — the profiling informer sizes
    every intercepted call through this walk. *)

type iface_proc
(** What the distribution informer needs to know about a parameter's
    type: whether it can carry interface pointers. *)

val compile_iface_walk : Idl_type.t -> iface_proc

val iface_walk_trivial : iface_proc -> bool
(** [true] when the type cannot carry interface pointers, so the
    distribution informer can skip the parameter entirely. *)

type method_procs = {
  request_procs : (Idl_type.direction * proc) list;  (** one per param *)
  ret_proc : proc;
  remotable : bool;
  outputs_ifaces : bool;
      (** an [Out] or [In_out] parameter, or the return, can carry an
          interface pointer: only then must a reply be walked for
          handles *)
}

val compile_method : Idl_type.method_sig -> method_procs
(** Compile every parameter of a method once; informers cache these per
    interface type. *)

val method_call_size :
  method_procs -> args:Value.t list -> result:Value.t ->
  (Marshal_size.call_size, Marshal_size.error) result
(** Compiled equivalent of {!Marshal_size.call}. *)
