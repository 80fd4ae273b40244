open Coign_util

(* Every pair — the creation-time slots and the extras seen later — has
   a dense id from one [Key_index] over (min, max): slots take ids
   [0, slot count) in creation order, extras the next ids in first-seen
   order. Decayed weights live in flat float arrays by id, so observing
   a known pair allocates nothing. *)
type t = {
  w_half_life_us : float;
  w_pairs : (int * int) array; (* slot -> normalized pair *)
  w_index : Key_index.t;
  mutable w_count : float array; (* by id *)
  mutable w_bytes : float array;
  mutable w_last : float array;
  (* Extra pair -> id. Sums over extras ([total_at], [byte_total_at])
     run in this table's order: the order a (pair, weight) table built
     by the same insertions iterates in. *)
  w_extra : (int * int, int) Hashtbl.t;
  mutable w_observed : int;
  mutable w_byte_observed : int;
  (* Decayed weights by id as of [w_view_at.(0)], valid until the next
     update: the snapshots a drift check takes at one instant share one
     decay per cell. *)
  mutable w_view_count : float array;
  mutable w_view_bytes : float array;
  w_view_at : float array;
  mutable w_view_ids : int; (* ids covered by the view; -1: stale *)
}

let create ~half_life_us ~pairs =
  if not (half_life_us > 0.) then
    invalid_arg "Window.create: half_life_us must be positive";
  let n = Array.length pairs in
  let pairs = Array.map (fun (a, b) -> (min a b, max a b)) pairs in
  let index = Key_index.create n in
  Array.iteri
    (fun slot (a, b) ->
      if Key_index.intern index a b 0 <> slot then invalid_arg "Window.create: duplicate pair")
    pairs;
  let cap = max 16 (2 * n) in
  {
    w_half_life_us = half_life_us;
    w_pairs = pairs;
    w_index = index;
    w_count = Array.make cap 0.;
    w_bytes = Array.make cap 0.;
    w_last = Array.make cap 0.;
    w_extra = Hashtbl.create 16;
    w_observed = 0;
    w_byte_observed = 0;
    w_view_count = [||];
    w_view_bytes = [||];
    w_view_at = [| nan |];
    w_view_ids = -1;
  }

let slot_count t = Array.length t.w_pairs
let observed t = t.w_observed
let byte_observed t = t.w_byte_observed
let extra_pairs t = Hashtbl.length t.w_extra

(* Per-cell lazy decay: a cell's stored weight is exact as of its own
   last-update time; reading or bumping it first folds in the decay
   since then. 2^(-dt/h) keeps half-life arithmetic exact at powers of
   two, which the unit tests pin down. *)
let[@inline] factor t dt = Float.pow 2. (-.dt /. t.w_half_life_us)

let grow t =
  let extend a =
    let b = Array.make (2 * Array.length a) 0. in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.w_count <- extend t.w_count;
  t.w_bytes <- extend t.w_bytes;
  t.w_last <- extend t.w_last

(* The id of the pair, registering an extra on first sight (fresh cells
   start empty, timed at [at_us]). *)
let id_of t ~at_us ~caller ~callee =
  let a = if caller <= callee then caller else callee in
  let b = if caller <= callee then callee else caller in
  let fresh = Key_index.length t.w_index in
  let id = Key_index.intern t.w_index a b 0 in
  if id = fresh then begin
    if id = Array.length t.w_count then grow t;
    t.w_last.(id) <- at_us;
    Hashtbl.add t.w_extra (a, b) id
  end;
  id

(* One decay factor per update, applied to both dimensions. *)
let observe t ~at_us ~caller ~callee ~bytes =
  t.w_view_ids <- -1;
  t.w_observed <- t.w_observed + 1;
  if bytes > 0 then t.w_byte_observed <- t.w_byte_observed + 1;
  let id = id_of t ~at_us ~caller ~callee in
  let dt = at_us -. t.w_last.(id) in
  if dt <= 0. then begin
    t.w_count.(id) <- t.w_count.(id) +. 1.;
    t.w_bytes.(id) <- t.w_bytes.(id) +. float_of_int bytes
  end
  else begin
    let f = factor t dt in
    t.w_count.(id) <- (t.w_count.(id) *. f) +. 1.;
    t.w_bytes.(id) <- (t.w_bytes.(id) *. f) +. float_of_int bytes
  end;
  t.w_last.(id) <- at_us

let add_bytes t ~at_us ~caller ~callee ~bytes =
  t.w_view_ids <- -1;
  if bytes > 0 then t.w_byte_observed <- t.w_byte_observed + 1;
  let id = id_of t ~at_us ~caller ~callee in
  let dt = at_us -. t.w_last.(id) in
  if dt <= 0. then t.w_bytes.(id) <- t.w_bytes.(id) +. float_of_int bytes
  else begin
    let f = factor t dt in
    t.w_count.(id) <- t.w_count.(id) *. f;
    t.w_bytes.(id) <- (t.w_bytes.(id) *. f) +. float_of_int bytes
  end;
  t.w_last.(id) <- at_us

(* The decayed weights of every id as of [now_us], computed once per
   instant between updates. *)
let view t ~now_us =
  let ids = Key_index.length t.w_index in
  if not (t.w_view_ids = ids && Float.equal t.w_view_at.(0) now_us) then begin
    if Array.length t.w_view_count < ids then begin
      t.w_view_count <- Array.make (Array.length t.w_count) 0.;
      t.w_view_bytes <- Array.make (Array.length t.w_count) 0.
    end;
    for id = 0 to ids - 1 do
      let dt = now_us -. t.w_last.(id) in
      if dt <= 0. then begin
        t.w_view_count.(id) <- t.w_count.(id);
        t.w_view_bytes.(id) <- t.w_bytes.(id)
      end
      else begin
        let f = factor t dt in
        t.w_view_count.(id) <- t.w_count.(id) *. f;
        t.w_view_bytes.(id) <- t.w_bytes.(id) *. f
      end
    done;
    t.w_view_at.(0) <- now_us;
    t.w_view_ids <- ids
  end

let count_view t ~now_us =
  view t ~now_us;
  t.w_view_count

let byte_view t ~now_us =
  view t ~now_us;
  t.w_view_bytes

let counts_at t ~now_us = Array.sub (count_view t ~now_us) 0 (slot_count t)
let bytes_at t ~now_us = Array.sub (byte_view t ~now_us) 0 (slot_count t)

(* The extras with their [weights] (by id), sorted by pair. *)
let sorted_extras t weights =
  List.sort compare (Hashtbl.fold (fun key id acc -> (key, weights.(id)) :: acc) t.w_extra [])

let extras_at t ~now_us = sorted_extras t (count_view t ~now_us)

(* Slots in slot order, then extras in table order. *)
let sum t weights =
  let total = ref 0. in
  for s = 0 to slot_count t - 1 do
    total := !total +. weights.(s)
  done;
  Hashtbl.iter (fun _ id -> total := !total +. weights.(id)) t.w_extra;
  !total

let total_at t ~now_us = sum t (count_view t ~now_us)
let byte_total_at t ~now_us = sum t (byte_view t ~now_us)

(* Slots in slot order, then extras sorted: the insertion order of the
   signature tables. *)
let signature t weights =
  let s = Drift.create () in
  Array.iteri (fun slot pair -> Drift.add s pair weights.(slot)) t.w_pairs;
  List.iter (fun (pair, w) -> Drift.add s pair w) (sorted_extras t weights);
  s

let signature_at t ~now_us = signature t (count_view t ~now_us)
let byte_signature_at t ~now_us = signature t (byte_view t ~now_us)
