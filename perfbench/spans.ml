(* The benchmark's own spans, recorded around its calls into each layer:
   name, start, end, parent and run id, kept in memory and written out once
   at the end in the Chrome trace_event shape Because_telemetry.Export
   emits (complete "X" events, microsecond timestamps from the earliest
   span), so the same viewers open it.  The program's own telemetry spans
   (per-shard replay, per-chain sampling) are merged in on their own
   per-domain lanes. *)

type span = {
  id : int;
  name : string;
  parent : int option;
  thread : int;
  start_ns : int64;
  end_ns : int64;
}

type t = {
  enabled : bool;
  run : string;
  mu : Mutex.t;
  mutable next : int;
  mutable spans : span list;
  stacks : (int, int list) Hashtbl.t;  (* open span ids per thread *)
  mutable program : Because_telemetry.Snapshot.t list;
}

let create ~enabled ~run =
  { enabled; run; mu = Mutex.create (); next = 0; spans = [];
    stacks = Hashtbl.create 8; program = [] }

let enabled t = t.enabled

let with_ t ~name f =
  if not t.enabled then f ()
  else begin
    let thread = Thread.id (Thread.self ()) in
    let id, parent =
      Mutex.protect t.mu (fun () ->
          let id = t.next in
          t.next <- id + 1;
          let stack = Option.value ~default:[] (Hashtbl.find_opt t.stacks thread) in
          Hashtbl.replace t.stacks thread (id :: stack);
          (id, match stack with p :: _ -> Some p | [] -> None))
    in
    let start_ns = Pb.now_ns () in
    let close () =
      let end_ns = Pb.now_ns () in
      Mutex.protect t.mu (fun () ->
          (match Hashtbl.find_opt t.stacks thread with
          | Some (_ :: rest) -> Hashtbl.replace t.stacks thread rest
          | _ -> ());
          t.spans <- { id; name; parent; thread; start_ns; end_ns } :: t.spans)
    in
    Fun.protect ~finally:close f
  end

(* Record an interval measured elsewhere (e.g. an open-loop request timed
   from its due time), parented under the caller's innermost open span. *)
let record t ~name ~start_ns ~end_ns =
  if t.enabled then begin
    let thread = Thread.id (Thread.self ()) in
    Mutex.protect t.mu (fun () ->
        let id = t.next in
        t.next <- id + 1;
        let parent =
          match Hashtbl.find_opt t.stacks thread with
          | Some (p :: _) -> Some p
          | _ -> None
        in
        t.spans <- { id; name; parent; thread; start_ns; end_ns } :: t.spans)
  end

let add_program t snap = if t.enabled then t.program <- snap :: t.program

let dur s = Pb.s_of_ns (Int64.sub s.end_ns s.start_ns)

let named t name =
  Mutex.protect t.mu (fun () -> List.filter (fun s -> s.name = name) t.spans)

(* Summed duration of every span with this name, seconds. *)
let total t name = List.fold_left (fun acc s -> acc +. dur s) 0.0 (named t name)

let escape = Because_service.Store.json_escape

let to_chrome_trace t =
  let ours = List.rev t.spans in
  let theirs =
    List.concat_map (fun s -> s.Because_telemetry.Snapshot.spans) t.program
  in
  let t0 =
    List.fold_left
      (fun acc (s : Because_telemetry.Snapshot.span) ->
        if Int64.compare s.start_ns acc < 0 then s.start_ns else acc)
      (List.fold_left
         (fun acc s -> if Int64.compare s.start_ns acc < 0 then s.start_ns else acc)
         Int64.max_int ours)
      theirs
  in
  let us ns = Int64.to_float (Int64.sub ns t0) /. 1e3 in
  let events =
    List.map
      (fun s ->
        Printf.sprintf
          "{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", \"ts\": \
           %.3f, \"dur\": %.3f, \"pid\": 0, \"tid\": %d, \"args\": {\"id\": \
           %d, \"parent\": %s, \"run\": \"%s\"}}"
          (escape s.name) (us s.start_ns)
          (Int64.to_float (Int64.sub s.end_ns s.start_ns) /. 1e3)
          s.thread s.id
          (match s.parent with Some p -> string_of_int p | None -> "null")
          (escape t.run))
      ours
    @ List.map
        (fun (s : Because_telemetry.Snapshot.span) ->
          Printf.sprintf
            "{\"name\": \"%s\", \"cat\": \"because\", \"ph\": \"X\", \"ts\": \
             %.3f, \"dur\": %.3f, \"pid\": %d, \"tid\": %d, \"args\": \
             {\"run\": \"%s\"}}"
            (escape s.name) (us s.start_ns)
            (Int64.to_float s.dur_ns /. 1e3)
            (1 + s.domain) s.domain (escape t.run))
        theirs
  in
  "{\"traceEvents\": [\n  " ^ String.concat ",\n  " events
  ^ "\n], \"displayTimeUnit\": \"ms\"}\n"

let write t path =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (to_chrome_trace t))
