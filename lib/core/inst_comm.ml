open Coign_util

(* Cells are keyed by the unordered instance pair (min, max) in a
   [Key_index]; counts and bytes are indexed by the cell id. *)
type t = {
  index : Key_index.t;
  counts : Dense_map.t;
  bytes : Dense_map.t;
  mutable messages : int;
  mutable total : int;
}

let create () =
  {
    index = Key_index.create 16;
    counts = Dense_map.create ~absent:0;
    bytes = Dense_map.create ~absent:0;
    messages = 0;
    total = 0;
  }

let add t ~src ~dst ~count ~bytes =
  let c = Key_index.intern t.index (Int.min src dst) (Int.max src dst) 0 in
  Dense_map.set t.counts c (Dense_map.get t.counts c + count);
  Dense_map.set t.bytes c (Dense_map.get t.bytes c + bytes);
  t.messages <- t.messages + count;
  t.total <- t.total + bytes

let record t ~src ~dst ~bytes =
  assert (bytes >= 0);
  add t ~src ~dst ~count:1 ~bytes

let record_call t ~caller ~callee ~request ~reply =
  assert (request >= 0 && reply >= 0);
  add t ~src:caller ~dst:callee ~count:2 ~bytes:(request + reply)

let cell_total t c = (Dense_map.get t.counts c, Dense_map.get t.bytes c)

let pair_total t a b =
  match Key_index.find t.index (Int.min a b) (Int.max a b) 0 with
  | -1 -> (0, 0)
  | c -> cell_total t c

let peers t inst =
  let acc = ref [] in
  for c = 0 to Key_index.length t.index - 1 do
    let a = Key_index.key_a t.index c and b = Key_index.key_b t.index c in
    if a = inst || b = inst then begin
      let count, bytes = cell_total t c in
      acc := ((if a = inst then b else a), count, bytes) :: !acc
    end
  done;
  List.sort (fun (p, _, _) (q, _, _) -> Int.compare p q) !acc

let instances t =
  let seen = Hashtbl.create 64 in
  for c = 0 to Key_index.length t.index - 1 do
    Hashtbl.replace seen (Key_index.key_a t.index c) ();
    Hashtbl.replace seen (Key_index.key_b t.index c) ()
  done;
  Hashtbl.fold (fun i () acc -> i :: acc) seen [] |> List.sort Int.compare

let message_count t = t.messages
let total_bytes t = t.total
