(* The bench ledger: the one writer behind every BENCH_<section>.json.

   Each file has a header (schema, section, quick, cores, git rev) and one
   row per measurement, in perfbench's shape: {name, unit, better, value}.
   Names are dotted, section first ("sim.campaign_jobs1.events_per_s"), and
   whatever describes the configuration a number was measured under (jobs,
   shards, AS count) is part of the name, so one name is one comparable
   series.  Running a section overwrites its file; the committed file's git
   history is the trajectory.  bench/ledger.jq checks the shape. *)

type better = Lower | Higher
type row = { name : string; unit_ : string; better : better; value : float }

let row name unit_ better value = { name; unit_; better; value }

let value rows name =
  List.find_map (fun r -> if r.name = name then Some r.value else None) rows

let git_rev () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown")

(* JSON has no NaN or infinity: such a value is written as null, which the
   schema check rejects. *)
let number v = if Float.is_finite v then Printf.sprintf "%.9g" v else "null"

let write ~section rows =
  let path = Printf.sprintf "BENCH_%s.json" section in
  let escape = Because_telemetry.Manifest.json_escape in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc
        "{\n\
        \  \"schema\": \"because-bench/2\",\n\
        \  \"section\": \"%s\",\n\
        \  \"quick\": %b,\n\
        \  \"cores\": %d,\n\
        \  \"git_rev\": \"%s\",\n\
        \  \"rows\": [\n"
        (escape section) Bench_context.quick
        (Domain.recommended_domain_count ())
        (escape (git_rev ()));
      List.iteri
        (fun k r ->
          Printf.fprintf oc
            "    { \"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\", \
             \"value\": %s }%s\n"
            (escape r.name) (escape r.unit_)
            (match r.better with Lower -> "lower" | Higher -> "higher")
            (number r.value)
            (if k = List.length rows - 1 then "" else ","))
        rows;
      output_string oc "  ]\n}\n");
  Printf.printf "wrote %s (%d rows)\n" path (List.length rows)

(* Paired rows of the same quantity, printed as a ratio: [slow / fast] as a
   speedup, [on / off - 1] as an overhead.  Pass time rows (lower is
   better); a missing row prints nothing. *)
let speedup rows ~label ~slow ~fast =
  match (value rows slow, value rows fast) with
  | Some s, Some f when f > 0.0 -> Printf.printf "%-32s %11.2fx\n" label (s /. f)
  | _ -> ()

let overhead rows ~label ~off ~on =
  match (value rows off, value rows on) with
  | Some o, Some n when o > 0.0 ->
      Printf.printf "%-32s %+10.2f%%\n" label (((n /. o) -. 1.0) *. 100.0)
  | _ -> ()
