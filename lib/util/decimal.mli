(** Decimal ints without [Printf] or [string_of_int]: written straight
    into a buffer and read straight out of a substring, for the text
    codecs on the profiling path. *)

val add : Buffer.t -> int -> unit
(** Append [n] in the form [string_of_int n] prints. *)

val parse : string -> int -> int -> int
(** [parse s i j] reads the int spelled by [s.[i] .. s.[j-1]]: an
    optional ['-'] then one or more ASCII digits, within the int range.
    Raises [Failure "Decimal.parse"] on anything else. *)
