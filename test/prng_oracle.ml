(* The splitmix64 generator as [Prng] shipped it with a boxed int64
   state field, kept only as a test oracle: [Prng] keeps its state in
   an unboxed cell and must draw exactly the same sequences. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = seed }

let copy t = { state = t.state }

(* splitmix64 finalizer: the standard avalanche mix. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let int t bound =
  assert (bound > 0);
  (* Keep 62 bits so the value fits OCaml's 63-bit native int. *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

let float t bound =
  assert (bound > 0.);
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  v /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let gaussian t ~mu ~sigma =
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 0. then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float t 1.0 in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let exponential t ~mean =
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 0. then u else nonzero ()
  in
  -.mean *. log (nonzero ())

let split t = { state = mix (next_int64 t) }

let mix64 = mix

(* Stream derivation is stateless: it never draws from (or even
   constructs) the root generator, so adding a consumer of stream [i]
   cannot perturb the draws of any other stream of the same seed. *)
let stream seed i = mix (Int64.add seed (Int64.mul golden_gamma (Int64.of_int i)))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))
