(* Shared helpers: clock, order statistics, process memory, files, and the
   metric table a workload hands back to perfbench.ml. *)

let now_ns () = Monotonic_clock.now ()
let s_of_ns ns = Int64.to_float ns *. 1e-9
let now_s () = s_of_ns (now_ns ())

let timed f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

(* Steal time per CPU from /proc/stat (USER_HZ ticks, 100 per second): time
   the hypervisor ran something else while this VM's CPU wanted to run.
   Empty where the file is missing. *)
let steal_per_cpu () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_all with
  | exception Sys_error _ -> [||]
  | stat ->
      String.split_on_char '\n' stat
      |> List.filter_map (fun line ->
             match String.split_on_char ' ' line with
             | name :: fields
               when String.length name > 3 && String.starts_with ~prefix:"cpu" name ->
                 Option.bind (List.nth_opt fields 7) int_of_string_opt
             | _ -> None)
      |> Array.of_list

(* A reading of the wall clock and the steal counters.  Steal is read
   outside the timed interval: before the clock at the start, after it at
   the end. *)
type clock = { wall : float; steal : int array }

let start () =
  let steal = steal_per_cpu () in
  { wall = now_s (); steal }

let stop () =
  let wall = now_s () in
  { wall; steal = steal_per_cpu () }

(* Seconds stolen from the busiest CPU between two readings. *)
let stolen a b =
  let ticks = ref 0 in
  Array.iteri
    (fun i s ->
      if i < Array.length b.steal then ticks := max !ticks (b.steal.(i) - s))
    a.steal;
  float_of_int !ticks /. 100.0

(* Wall time between two readings less the time stolen meanwhile: what the
   interval would have taken on an uncontended host.  Shared VMs lose tens
   of percent of their CPU to steal in bursts lasting minutes, which would
   otherwise swamp a regression bound.  Ticks are 10 ms, so only intervals
   well above that are timed this way. *)
let unstolen a b = b.wall -. a.wall -. stolen a b

let timed_unstolen f =
  let a = start () in
  let r = f () in
  (r, unstolen a (stop ()))

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> nan
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile with at least ten samples beyond it: sorted index
   n-11, i.e. percentile 100·(n-10)/n.  Below 100 samples that percentile
   falls under p90 (under the median below 20), so the tail then reads the
   maximum (percentile 100). *)
let tail xs =
  match sorted xs with
  | [||] -> (nan, 100.0)
  | a ->
      let n = Array.length a in
      if n < 100 then (a.(n - 1), 100.0)
      else (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n)

let quantile xs p =
  match sorted xs with
  | [||] -> nan
  | a ->
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) rank))

let sum xs = List.fold_left ( +. ) 0.0 xs

(* Peak resident set (VmHWM) of this process, in MiB. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> nan
  | status ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match
                String.split_on_char ' ' (String.trim v)
                |> List.filter (( <> ) "")
              with
              | kb :: _ -> float_of_string kb /. 1024.0
              | [] -> acc)
          | _ -> acc)
        nan
        (String.split_on_char '\n' status)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | _ -> Sys.remove path

(* Regular files under [dir] and their total size. *)
let rec walk dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> (0, 0)
  | names ->
      Array.fold_left
        (fun (files, bytes) name ->
          let path = Filename.concat dir name in
          match Unix.lstat path with
          | { Unix.st_kind = Unix.S_DIR; _ } ->
              let f, b = walk path in
              (files + f, bytes + b)
          | { Unix.st_kind = Unix.S_REG; st_size; _ } ->
              (files + 1, bytes + st_size)
          | _ | (exception Unix.Unix_error _) -> (files, bytes))
        (0, 0) names

(* Everything a run writes lives under this directory of the checkout. *)
let work_root = ".perfbench_run"

let work_dir name =
  let dir = Filename.concat work_root name in
  rm_rf dir;
  mkdir_p dir;
  dir

let shuffle ~seed a =
  let a = Array.copy a in
  Because_stats.Rng.shuffle (Because_stats.Rng.create seed) a;
  a

let fail fmt = Printf.ksprintf failwith fmt

exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

(* What a workload run reports back: operation counts, named metrics with
   units, and free-form details printed before the result line. *)
type report = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  details : (string * string) list;
}

let detail name v = (name, v)
let detailf name fmt = Printf.ksprintf (fun v -> (name, v)) fmt
