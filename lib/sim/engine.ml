type 'a t = {
  heap : 'a Heap.t;
  mutable clock : float;
  mutable processed : int;
  mutable max_pending : int;
}

let create () =
  { heap = Heap.create (); clock = 0.0; processed = 0; max_pending = 0 }

let now t = t.clock

let schedule t ~time payload =
  Heap.push t.heap ~time:(Float.max time t.clock) payload;
  let depth = Heap.size t.heap in
  if depth > t.max_pending then t.max_pending <- depth

let pending t = Heap.size t.heap
let processed t = t.processed
let max_pending t = t.max_pending

(* Handle the earliest event, whose [time] the caller read: reading the
   time and taking the payload directly builds no option or tuple per
   event. *)
let dispatch t ~handler time =
  let payload = Heap.take t.heap in
  t.clock <- time;
  t.processed <- t.processed + 1;
  handler ~now:time payload

let step t ~handler =
  if Heap.is_empty t.heap then false
  else begin
    dispatch t ~handler (Heap.top_time t.heap);
    true
  end

let run t ~until ~handler =
  let continue = ref true in
  while !continue do
    if Heap.is_empty t.heap then continue := false
    else begin
      let time = Heap.top_time t.heap in
      if time > until then continue := false else dispatch t ~handler time
    end
  done
