(** Distributed, thread-local stack storage (paper §3.1).

    The RTE keeps contextual information across interface calls in its
    own shadow stack: each intercepted call pushes a frame and pops it
    on return. A frame is three ints — the callee instance, the
    classification that instance received when it was created, and the
    call site (an RTE-assigned id naming the interface and method) — so
    a push allocates nothing. Instance classifiers walk this stack — it
    is the "stack back-trace (call chain)" of paper §3.4 — and the
    component factory reads its top to know on whose behalf an
    instantiation request is made. Full {!Frame.t} records are built
    only when a classifier needs a descriptor ({!walk}).

    The representation is exposed read-only so the RTE's per-call path
    and the classifier's key walk read frames without a call: frame [j]
    counted from the bottom is [insts.(j)], [classifications.(j)],
    [sites.(j)] for [j < n]; the top frame is [j = n - 1]. *)

type t = private {
  mutable insts : int array;
  mutable classifications : int array;
  mutable sites : int array;
  mutable n : int;  (** depth *)
}

val create : unit -> t

val push : t -> inst:int -> classification:int -> site:int -> unit

val pop : t -> unit
(** Raises [Invalid_argument] on an empty stack (an unbalanced
    interception is a bug). *)

val depth : t -> int

val walk :
  ?limit:int ->
  t ->
  frame:(inst:int -> classification:int -> site:int -> Frame.t) ->
  Frame.t list
(** Frames from the most recent downward, at most [limit] of them
    (default: all), each materialized by [frame]. This is the
    classifier's stack walk; tuning [limit] trades accuracy for
    overhead (paper Table 3). Raises [Invalid_argument] on a negative
    [limit]. *)
