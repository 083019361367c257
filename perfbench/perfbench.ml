(* The repo benchmark.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   Untraced (--trace 0) it prints every end-to-end metric; traced
   (--trace 1) every per-layer metric, and writes the benchmark's spans as
   a Chrome trace under .perfbench_run/.  The last line of standard output
   is one JSON object: correct, attempted, failed, metrics.  A failed
   correctness check prints that object with "correct": false and exits 1;
   bad arguments exit 2 without a result. *)

let workloads =
  [ ("campaign_default", (Wl_campaign.untraced, Wl_campaign.traced));
    ("stream_epochs", (Wl_stream.untraced, Wl_stream.traced));
    ("serve_mixed", (Wl_serve.untraced, Wl_serve.traced)) ]

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: campaign_default stream_epochs serve_mixed";
  exit 2

let parse argv =
  let rec go acc = function
    | [] -> acc
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--"
      ->
        go ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
    | _ -> usage ()
  in
  let args = go [] (List.tl (Array.to_list argv)) in
  let get name = match List.assoc_opt name args with Some v -> v | None -> usage () in
  let int name = match int_of_string_opt (get name) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  if not (List.mem_assoc workload workloads) then usage ();
  let seconds = int "seconds" in
  let trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  (workload, int "seed", float_of_int seconds, trace = 1)

let json_number name v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else Pb.fail "metric %s is not finite (%g)" name v

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit_) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (json_number name v) unit_)
          metrics))

let () =
  let workload, seed, seconds, trace = parse Sys.argv in
  let untraced, traced = List.assoc workload workloads in
  let run = Printf.sprintf "%s-seed%d" workload seed in
  Pb.mkdir_p Pb.work_root;
  let spans = Spans.create ~enabled:trace ~run in
  let table = if trace then Metrics.per_layer else Metrics.end_to_end in
  let c0 = Pb.start () in
  let report =
    try
      Ok (if trace then traced ~seed ~seconds ~spans else untraced ~seed ~seconds)
    with Pb.Check_failed msg -> Error msg
  in
  match report with
  | Error msg ->
      Printf.eprintf "perfbench: correctness check failed: %s\n%!" msg;
      print_endline
        (result_line ~correct:false ~attempted:1 ~failed:1
           (List.map (fun (n, u) -> (n, 0.0, u)) table));
      exit 1
  | Ok r ->
      let metrics = Metrics.fill table r.Pb.metrics in
      if trace then begin
        let path = Filename.concat Pb.work_root (run ^ ".trace.json") in
        Spans.write spans path;
        Printf.printf "%-28s %s\n" "spans" path
      end;
      List.iter (fun (k, v) -> Printf.printf "%-28s %s\n" k v) r.Pb.details;
      Printf.printf "%-28s %.2f\n" "stolen_s" (Pb.stolen c0 (Pb.stop ()));
      List.iter
        (fun (name, v, unit_) -> Printf.printf "%-28s %14.6g %s\n" name v unit_)
        metrics;
      print_endline
        (result_line ~correct:true ~attempted:r.Pb.attempted ~failed:r.Pb.failed
           metrics)
