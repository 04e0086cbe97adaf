type t = { n : int; words : int array }

let bits_per_word = Sys.int_size

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { n; words = Array.make ((n + bits_per_word - 1) / bits_per_word) 0 }

let capacity s = s.n

let check s i =
  if i < 0 || i >= s.n then invalid_arg "Bitset: index out of range"

let mem s i =
  check s i;
  s.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add s i =
  check s i;
  s.words.(i / bits_per_word) <-
    s.words.(i / bits_per_word) lor (1 lsl (i mod bits_per_word))

let remove s i =
  check s i;
  s.words.(i / bits_per_word) <-
    s.words.(i / bits_per_word) land lnot (1 lsl (i mod bits_per_word))

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0 x

let cardinal s = Array.fold_left (fun acc w -> acc + popcount w) 0 s.words
let is_empty s = Array.for_all (fun w -> w = 0) s.words
let clear s = Array.fill s.words 0 (Array.length s.words) 0

let fill s =
  for i = 0 to s.n - 1 do
    s.words.(i / bits_per_word) <-
      s.words.(i / bits_per_word) lor (1 lsl (i mod bits_per_word))
  done

let copy s = { n = s.n; words = Array.copy s.words }

let equal a b =
  a.n = b.n && Array.for_all2 (fun x y -> x = y) a.words b.words

let same_capacity a b op =
  if a.n <> b.n then invalid_arg ("Bitset." ^ op ^ ": capacity mismatch")

let disjoint a b =
  same_capacity a b "disjoint";
  let aw = a.words and bw = b.words in
  let i = ref 0 and n = Array.length aw in
  while !i < n && Array.unsafe_get aw !i land Array.unsafe_get bw !i = 0 do
    incr i
  done;
  !i = n

let inter_into dst src =
  same_capacity dst src "inter_into";
  let d = dst.words and s = src.words in
  for i = 0 to Array.length d - 1 do
    Array.unsafe_set d i (Array.unsafe_get d i land Array.unsafe_get s i)
  done

let union_into dst src =
  same_capacity dst src "union_into";
  let d = dst.words and s = src.words in
  for i = 0 to Array.length d - 1 do
    Array.unsafe_set d i (Array.unsafe_get d i lor Array.unsafe_get s i)
  done

let union_changed dst src =
  same_capacity dst src "union_changed";
  let d = dst.words and s = src.words in
  let grew = ref false in
  for i = 0 to Array.length d - 1 do
    let w = Array.unsafe_get d i in
    let w' = w lor Array.unsafe_get s i in
    if w' <> w then begin
      Array.unsafe_set d i w';
      grew := true
    end
  done;
  !grew

let andn_into dst src =
  same_capacity dst src "andn_into";
  let d = dst.words and s = src.words in
  for i = 0 to Array.length d - 1 do
    Array.unsafe_set d i (Array.unsafe_get d i land lnot (Array.unsafe_get s i))
  done

(* Zero words are skipped whole, so sparse sets iterate in time
   proportional to their words plus their members' words. *)
let iter f s =
  let ws = s.words in
  for wi = 0 to Array.length ws - 1 do
    let w = Array.unsafe_get ws wi in
    if w <> 0 then
      for b = 0 to bits_per_word - 1 do
        if w land (1 lsl b) <> 0 then f ((wi * bits_per_word) + b)
      done
  done

let rec trailing_zeros w k =
  if w land 1 = 1 then k else trailing_zeros (w lsr 1) (k + 1)

let rec next s i =
  if i >= s.n then -1
  else if i < 0 then next s 0
  else
    let w = s.words.(i / bits_per_word) lsr (i mod bits_per_word) in
    if w <> 0 then i + trailing_zeros w 0
    else next s ((i / bits_per_word + 1) * bits_per_word)

let elements s =
  let acc = ref [] in
  for i = s.n - 1 downto 0 do
    if mem s i then acc := i :: !acc
  done;
  !acc

let of_list n xs =
  let s = create n in
  List.iter (add s) xs;
  s
