(* Digits of a non-positive [n], most significant first: working on the
   negative side covers [min_int] too. *)
let rec add_neg buf n =
  if n <= -10 then add_neg buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let add buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_neg buf n
  end
  else add_neg buf (-n)

let fail () = failwith "Decimal.parse"

(* Accumulate negatively, so [min_int] parses; fail before a step
   would pass [min_int]. *)
let rec digits s k j acc =
  if k = j then acc
  else
    match s.[k] with
    | '0' .. '9' as ch ->
        let d = Char.code ch - 48 in
        if acc < (min_int + d) / 10 then fail ();
        digits s (k + 1) j ((10 * acc) - d)
    | _ -> fail ()

let parse s i j =
  if i < 0 || j > String.length s || i >= j then fail ();
  if s.[i] = '-' then begin
    if i + 1 = j then fail ();
    digits s (i + 1) j 0
  end
  else
    let n = digits s i j 0 in
    if n = min_int then fail ();
    -n
