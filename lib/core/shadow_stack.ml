type t = { mutable frames : Frame.t list; mutable n : int }

let create () = { frames = []; n = 0 }

let push t f =
  t.frames <- f :: t.frames;
  t.n <- t.n + 1

let pop t =
  match t.frames with
  | [] -> invalid_arg "Shadow_stack.pop: empty stack"
  | _ :: rest ->
      t.frames <- rest;
      t.n <- t.n - 1

let top_or t base = match t.frames with [] -> base | f :: _ -> f

let depth t = t.n

let walk ?limit t =
  match limit with
  | None -> t.frames
  | Some k ->
      if k < 0 then invalid_arg "Shadow_stack.walk: negative limit";
      let rec take k = function
        | [] -> []
        | _ when k = 0 -> []
        | f :: rest -> f :: take (k - 1) rest
      in
      take k t.frames

let clear t =
  t.frames <- [];
  t.n <- 0
