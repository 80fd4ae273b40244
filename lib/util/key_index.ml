type t = {
  mutable keys : int array; (* 3 ints per id, in id order *)
  mutable n : int;
  mutable slots : int array; (* id per slot, -1 = empty; length a power of 2 *)
}

let create n =
  let cap = ref 16 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  { keys = Array.make (3 * max 8 n) 0; n = 0; slots = Array.make !cap (-1) }

let[@inline] hash a b c =
  let h = (a * 0x2545F491) + b in
  let h = (h * 0x9E3779B1) + c in
  let h = h lxor (h lsr 17) in
  let h = h * 0x85EBCA6B in
  h lxor (h lsr 31)

(* Slot holding [(a, b, c)], or the empty slot where it would go: a
   linear probe in one loop, so a lookup calls nothing and allocates
   nothing. *)
let[@inline] slot t a b c =
  let slots = t.slots and keys = t.keys in
  let mask = Array.length slots - 1 in
  let i = ref (hash a b c land mask) in
  let searching = ref true in
  while !searching do
    let id = Array.unsafe_get slots !i in
    if id < 0 then searching := false
    else
      let k = 3 * id in
      if Array.unsafe_get keys k = a
         && Array.unsafe_get keys (k + 1) = b
         && Array.unsafe_get keys (k + 2) = c
      then searching := false
      else i := (!i + 1) land mask
  done;
  !i

let find t a b c = t.slots.(slot t a b c)

let grow t =
  let slots = Array.make (2 * Array.length t.slots) (-1) in
  let mask = Array.length slots - 1 in
  for id = 0 to t.n - 1 do
    let k = 3 * id in
    let rec place i = if slots.(i) < 0 then slots.(i) <- id else place ((i + 1) land mask) in
    place (hash t.keys.(k) t.keys.(k + 1) t.keys.(k + 2) land mask)
  done;
  t.slots <- slots

let intern t a b c =
  let i = slot t a b c in
  let id = t.slots.(i) in
  if id >= 0 then id
  else begin
    let id = t.n in
    if 3 * (id + 1) > Array.length t.keys then begin
      let keys = Array.make (2 * Array.length t.keys) 0 in
      Array.blit t.keys 0 keys 0 (3 * id);
      t.keys <- keys
    end;
    let k = 3 * id in
    t.keys.(k) <- a;
    t.keys.(k + 1) <- b;
    t.keys.(k + 2) <- c;
    t.n <- id + 1;
    t.slots.(i) <- id;
    (* Keep the load factor at or below one half. *)
    if 2 * t.n > Array.length t.slots then grow t;
    id
  end

let length t = t.n

let key t id j =
  if id < 0 || id >= t.n then invalid_arg "Key_index: unknown id";
  t.keys.((3 * id) + j)

let key_a t id = key t id 0
let key_b t id = key t id 1
let key_c t id = key t id 2
