module Hash = Fb_hash.Hash

type entry = { off : int; len : int }

(* Slot [i] holds its id in [ids] at [i * 32] and its position in [pos] at
   [2 * i] (offset) and [2 * i + 1] (length, [-1] when the slot is free).
   Linear probing from the slot the id's first 8 bytes name (SHA-256 ids
   are uniform); removal shifts the rest of the probe run back, so no
   tombstones are needed. *)
type t = {
  mutable ids : Bytes.t;
  mutable pos : int array;
  mutable count : int;
}

let id_size = Hash.size

let alloc slots =
  (Bytes.create (slots * id_size), Array.make (2 * slots) (-1))

(* Room for [n] entries at a load of at most 3/4: a power of two. *)
let slots_for n =
  let rec grow s = if 3 * s >= 4 * n then s else grow (2 * s) in
  grow 16

let create n =
  let ids, pos = alloc (slots_for n) in
  { ids; pos; count = 0 }

let length t = t.count
let slots t = Array.length t.pos / 2
let free t i = t.pos.((2 * i) + 1) < 0

let home t raw =
  Int64.to_int (String.get_int64_le raw 0) land (slots t - 1)

let home_of_slot t i =
  Int64.to_int (Bytes.get_int64_le t.ids (i * id_size)) land (slots t - 1)

let holds t i raw =
  let base = i * id_size in
  let rec go k =
    k >= id_size
    || Int64.equal
         (Bytes.get_int64_le t.ids (base + k))
         (String.get_int64_le raw k)
       && go (k + 8)
  in
  go 0

(* The slot holding [id], or the free slot ending its probe run. *)
let find_slot t id =
  let raw = Hash.to_raw id and mask = slots t - 1 in
  let rec go i =
    if free t i || holds t i raw then i else go ((i + 1) land mask)
  in
  go (home t raw)

let mem t id = not (free t (find_slot t id))

let find_opt t id =
  let i = find_slot t id in
  if free t i then None
  else Some { off = t.pos.(2 * i); len = t.pos.((2 * i) + 1) }

let set t i id e =
  Bytes.blit_string (Hash.to_raw id) 0 t.ids (i * id_size) id_size;
  t.pos.(2 * i) <- e.off;
  t.pos.((2 * i) + 1) <- e.len

let iter f t =
  for i = 0 to slots t - 1 do
    if not (free t i) then
      f
        (Hash.of_raw_exn (Bytes.sub_string t.ids (i * id_size) id_size))
        { off = t.pos.(2 * i); len = t.pos.((2 * i) + 1) }
  done

let fold f t acc =
  let acc = ref acc in
  iter (fun id e -> acc := f id e !acc) t;
  !acc

(* Double the slots, moving every entry to its probe run in the new
   layout. *)
let grow t =
  let old_ids = t.ids and old_pos = t.pos in
  let ids, pos = alloc (2 * slots t) in
  t.ids <- ids;
  t.pos <- pos;
  let mask = slots t - 1 in
  for j = 0 to (Array.length old_pos / 2) - 1 do
    if old_pos.((2 * j) + 1) >= 0 then begin
      let rec probe i = if free t i then i else probe ((i + 1) land mask) in
      let i =
        probe
          (Int64.to_int (Bytes.get_int64_le old_ids (j * id_size)) land mask)
      in
      Bytes.blit old_ids (j * id_size) t.ids (i * id_size) id_size;
      t.pos.(2 * i) <- old_pos.(2 * j);
      t.pos.((2 * i) + 1) <- old_pos.((2 * j) + 1)
    end
  done

let replace t id e =
  if e.len < 0 then invalid_arg "Log_index.replace: negative length";
  let i = find_slot t id in
  if not (free t i) then set t i id e
  else begin
    let i =
      if 4 * (t.count + 1) > 3 * slots t then (grow t; find_slot t id) else i
    in
    set t i id e;
    t.count <- t.count + 1
  end

let remove t id =
  let mask = slots t - 1 in
  let hole = find_slot t id in
  if not (free t hole) then begin
    (* Backward-shift deletion: pull later members of the probe run into
       the hole when their home does not lie cyclically in (hole, j]. *)
    let rec shift hole j =
      let j = (j + 1) land mask in
      if free t j then hole
      else
        let h = home_of_slot t j in
        let stays =
          if hole <= j then hole < h && h <= j else hole < h || h <= j
        in
        if stays then shift hole j
        else begin
          Bytes.blit t.ids (j * id_size) t.ids (hole * id_size) id_size;
          t.pos.(2 * hole) <- t.pos.(2 * j);
          t.pos.((2 * hole) + 1) <- t.pos.((2 * j) + 1);
          shift j j
        end
    in
    let last = shift hole hole in
    t.pos.((2 * last) + 1) <- -1;
    t.count <- t.count - 1
  end

let reset t =
  let ids, pos = alloc 16 in
  t.ids <- ids;
  t.pos <- pos;
  t.count <- 0
