(* Struct of arrays: slot i of [times]/[seqs]/[payloads] is one event.  The
   times live unboxed in a float array and the sequence numbers in an int
   array, so a push or pop allocates nothing but an occasional resize,
   where a record per event was allocated on every push. *)
type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable len : int;
  mutable next_seq : int;
}

let create () =
  { times = [||]; seqs = [||]; payloads = [||]; len = 0; next_seq = 0 }

let is_empty t = t.len = 0
let size t = t.len

(* Does slot [j] come before the event ([time], [seq])? *)
let before t j time seq =
  let tj = Array.unsafe_get t.times j in
  tj < time || (tj = time && Array.unsafe_get t.seqs j < seq)

let move t ~src ~dst =
  Array.unsafe_set t.times dst (Array.unsafe_get t.times src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  Array.unsafe_set t.payloads dst (Array.unsafe_get t.payloads src)

let grow t payload =
  let cap = Stdlib.max 16 (2 * Array.length t.times) in
  let times = Array.make cap 0.0 in
  let seqs = Array.make cap 0 in
  let payloads = Array.make cap payload in
  Array.blit t.times 0 times 0 t.len;
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.payloads 0 payloads 0 t.len;
  t.times <- times;
  t.seqs <- seqs;
  t.payloads <- payloads

let push t ~time payload =
  if t.len = Array.length t.times then grow t payload;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (* Sift the hole up from the end.  [seq] is the largest so far, so an
     equal-time parent stays above it: FIFO among equal times. *)
  let i = ref t.len in
  t.len <- t.len + 1;
  while !i > 0 && time < Array.unsafe_get t.times ((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    move t ~src:parent ~dst:!i;
    i := parent
  done;
  Array.unsafe_set t.times !i time;
  Array.unsafe_set t.seqs !i seq;
  Array.unsafe_set t.payloads !i payload

let top_time t =
  if t.len = 0 then invalid_arg "Heap.top_time: empty heap";
  Array.unsafe_get t.times 0

let take t =
  if t.len = 0 then invalid_arg "Heap.take: empty heap";
  let top = Array.unsafe_get t.payloads 0 in
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then begin
    (* Sift the last event down from the root.  It stays in slot [n] until
       the hole reaches its place; -1 stands for it among the candidates. *)
    let time = Array.unsafe_get t.times n and seq = Array.unsafe_get t.seqs n in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      let smallest = if l < n && before t l time seq then l else -1 in
      let smallest =
        if
          r < n
          &&
          if smallest < 0 then before t r time seq
          else
            before t r (Array.unsafe_get t.times l) (Array.unsafe_get t.seqs l)
        then r
        else smallest
      in
      if smallest < 0 then continue := false
      else begin
        move t ~src:smallest ~dst:!i;
        i := smallest
      end
    done;
    move t ~src:n ~dst:!i
  end;
  top
