(** Dense ids for integer-triple keys.

    An open-addressing table that interns [(a, b, c)] keys into the ids
    [0, 1, 2, ...] in first-insertion order, hashing and comparing the
    three ints directly: no polymorphic hash or compare, and no
    allocation on a hit. Callers keep their per-key payload in arrays
    indexed by the id. Two-int keys pass [0] as [c]. *)

type t

val create : int -> t
(** An empty index sized for about [n] keys; it grows as needed. *)

val find : t -> int -> int -> int -> int
(** The id of [(a, b, c)], or [-1] when the key is absent. *)

val intern : t -> int -> int -> int -> int
(** The id of [(a, b, c)], adding the key with the next id
    ([length t] before the call) when it is absent. *)

val length : t -> int
(** Number of keys; ids run from [0] to [length t - 1]. *)

val key_a : t -> int -> int
val key_b : t -> int -> int
val key_c : t -> int -> int
(** Components of the key with the given id. *)
