(** Maps from dense non-negative ints to ints, as growable arrays.

    Instance ids and handles are allocated densely from 0, so a table
    keyed by them is an array: a lookup is a bounds check and a load,
    with no hashing. Keys never set read as the map's [absent] value. *)

type t

val create : absent:int -> t
(** An empty map whose unset keys read as [absent]. *)

val get : t -> int -> int
(** The value at a key; [absent] for a key never set, including any
    negative key. *)

val set : t -> int -> int -> unit
(** Bind a key, growing the map as needed. Raises [Invalid_argument]
    on a negative key. *)

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over the keys whose value is not [absent], in descending key
    order, so consing the pairs yields an ascending list. *)
