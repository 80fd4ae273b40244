(* Buckets: [0,31], [32,63], [64,127], ... doubling; 58 buckets cover
   every non-negative 63-bit size. A histogram stores only the buckets
   up to the highest one used — message sizes cluster in a few low
   buckets, so most histograms hold a handful of slots — as one
   interleaved (count, bytes) array. *)

let base_bits = 5 (* first bucket covers 0 .. 2^5 - 1 *)
let nbuckets = 58
let bucket_count = nbuckets

type t = { mutable slots : int array (* 2i: count of bucket i, 2i+1: its bytes *) }

let create () = { slots = [||] }

let rec bit_length n acc = if n = 0 then acc else bit_length (n lsr 1) (acc + 1)

let bucket_index bytes =
  assert (bytes >= 0);
  if bytes < 1 lsl base_bits then 0
  else
    let i = bit_length bytes 0 - base_bits in
    if i < nbuckets then i else nbuckets - 1

let bucket_bounds i =
  if i = 0 then (0, (1 lsl base_bits) - 1)
  else
    let lo = 1 lsl (base_bits + i - 1) in
    (lo, (2 * lo) - 1)

let used t = Array.length t.slots / 2

(* Make room for bucket [i]. *)
let reserve t i =
  if i >= used t then begin
    let slots = Array.make (2 * (i + 1)) 0 in
    Array.blit t.slots 0 slots 0 (Array.length t.slots);
    t.slots <- slots
  end

let add_at t i ~count ~bytes =
  reserve t i;
  let s = t.slots in
  s.(2 * i) <- s.(2 * i) + count;
  s.((2 * i) + 1) <- s.((2 * i) + 1) + bytes

let add t ~bytes = add_at t (bucket_index bytes) ~count:1 ~bytes

let add_many t ~bytes ~count =
  assert (count >= 0);
  if count > 0 then add_at t (bucket_index bytes) ~count ~bytes:(count * bytes)

let add_into dst src =
  let n = used src in
  if n > 0 then reserve dst (n - 1);
  for k = 0 to (2 * n) - 1 do
    dst.slots.(k) <- dst.slots.(k) + src.slots.(k)
  done

let merge a b =
  let r = create () in
  add_into r a;
  add_into r b;
  r

let count_at t i = if i < used t then t.slots.(2 * i) else 0
let bytes_at t i = if i < used t then t.slots.((2 * i) + 1) else 0

let message_count t =
  let n = ref 0 in
  for i = 0 to used t - 1 do
    n := !n + t.slots.(2 * i)
  done;
  !n

let total_bytes t =
  let n = ref 0 in
  for i = 0 to used t - 1 do
    n := !n + t.slots.((2 * i) + 1)
  done;
  !n

let fold f t init =
  let acc = ref init in
  for i = 0 to used t - 1 do
    let count = t.slots.(2 * i) in
    if count > 0 then acc := f ~index:i ~count ~bytes:t.slots.((2 * i) + 1) !acc
  done;
  !acc

let mean_bytes_in_bucket t i =
  let count = count_at t i in
  if count = 0 then 0. else float_of_int (bytes_at t i) /. float_of_int count

let is_empty t = message_count t = 0

let equal a b =
  let rec same i =
    i >= nbuckets || (count_at a i = count_at b i && bytes_at a i = bytes_at b i && same (i + 1))
  in
  same 0

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  ignore
    (fold
       (fun ~index ~count ~bytes first ->
         let lo, hi = bucket_bounds index in
         if not first then Format.fprintf ppf "@,";
         Format.fprintf ppf "[%d..%d]: %d msgs, %d bytes" lo hi count bytes;
         false)
       t true);
  Format.fprintf ppf "@]"
