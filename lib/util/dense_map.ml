type t = { mutable values : int array; absent : int }

let create ~absent = { values = Array.make 16 absent; absent }

let get t k = if k >= 0 && k < Array.length t.values then Array.unsafe_get t.values k else t.absent

let set t k v =
  if k < 0 then invalid_arg "Dense_map.set: negative key";
  let n = Array.length t.values in
  if k >= n then begin
    let values = Array.make (max (2 * n) (k + 1)) t.absent in
    Array.blit t.values 0 values 0 n;
    t.values <- values
  end;
  Array.unsafe_set t.values k v

let fold f t init =
  let acc = ref init in
  for k = Array.length t.values - 1 downto 0 do
    let v = t.values.(k) in
    if v <> t.absent then acc := f k v !acc
  done;
  !acc
